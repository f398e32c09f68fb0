"""Tests for the event-driven serving simulation (virtual clock, SLOs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.latency.model import LatencyModel, SplitWorkload
from repro.models.resnet import ResNet, ResNetConfig
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    Arrival,
    Autoscaler,
    AutoscalePolicy,
    DeadlineScheduler,
    FaultInjector,
    FaultPlan,
    FleetPolicy,
    InferenceService,
    ReplicaFault,
    RetryPolicy,
    ServiceFleet,
    TickCost,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    simulate,
    simulate_fleet,
)
from repro.utils.rng import new_rng

rng = np.random.default_rng(23)

FEATURES = rng.random((1, 8, 8, 8)).astype(np.float32)


def tiny_bodies(num_nets=2):
    config = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_service(scheduler, num_sessions=4, max_batch=4, max_queue=64):
    service = InferenceService(Server(tiny_bodies()), max_batch=max_batch,
                               max_queue=max_queue, scheduler=scheduler)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(num_sessions)]
    return service, sessions


class TestTraces:
    def test_bursty_trace_shape(self):
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=8,
                             burst_gap_s=0.05, deadline_s=0.1)
        assert len(trace) == 24
        assert {a.time for a in trace} == {0.0, 0.05, 0.1}
        assert {a.session_index for a in trace} == {0, 1, 2, 3}
        assert all(a.deadline_s == 0.1 for a in trace)

    def test_poisson_trace_monotone(self):
        trace = poisson_trace(num_sessions=3, num_requests=20, rate_hz=100.0,
                              rng=np.random.default_rng(5))
        times = [a.time for a in trace]
        assert times == sorted(times)
        assert len(trace) == 20


class TestTickCost:
    def test_pass_seconds(self):
        cost = TickCost(pass_overhead_s=0.01, per_sample_s=0.001)
        assert cost.pass_seconds(5) == pytest.approx(0.015)

    def test_from_latency_model_fp16_cheaper_downlink(self):
        model = LatencyModel()
        workload = SplitWorkload(batch_size=4, client_head_flops=1e6,
                                 client_tail_flops=1e6, server_body_flops=4e8,
                                 upload_bytes=4 * 8192 * 4 + 64,
                                 download_bytes_per_net=4 * 256 * 4 + 64)
        fp32 = TickCost.from_latency_model(model, workload, num_nets=8)
        fp16 = TickCost.from_latency_model(model, workload, num_nets=8,
                                           codec="fp16")
        assert fp32.per_sample_s > 0
        assert fp32.pass_overhead_s > 0
        assert fp16.per_request_downlink_s < fp32.per_request_downlink_s
        assert fp16.per_sample_s == fp32.per_sample_s


class TestSimulate:
    def test_empty_trace(self):
        service, sessions = make_service("fifo")
        report = simulate(service, sessions, [], TickCost(),
                          default_features=FEATURES)
        assert report.served == 0 and report.ticks == 0
        assert report.p95_s == 0.0

    def test_fifo_serves_whole_trace(self):
        service, sessions = make_service("fifo")
        trace = bursty_trace(num_sessions=4, bursts=2, burst_size=8,
                             burst_gap_s=0.1)
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        report = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        assert report.served == 16
        assert report.rejected == 0
        assert report.ticks == 4  # 8-request bursts in max_batch=4 groups
        assert service.stats.served_requests == 16
        assert 0 < report.p50_s <= report.p95_s <= report.p99_s
        assert report.makespan_s > 0

    def test_deadline_violations_counted(self):
        service, sessions = make_service("fifo", max_batch=1)
        trace = [Arrival(time=0.0, session_index=i, deadline_s=0.015)
                 for i in range(4)]
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        report = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        # serial 11ms passes: completions 11/22/33/44ms against a 15ms SLO
        assert report.violations == 3
        assert report.violation_rate == pytest.approx(3 / 4)

    def test_backpressure_counts_rejections(self):
        service, sessions = make_service("fifo", max_queue=4)
        trace = [Arrival(time=0.0, session_index=i % 4) for i in range(10)]
        report = simulate(service, sessions, trace, cost=TickCost(),
                          default_features=FEATURES)
        assert report.rejected == 6  # queue of 4 absorbed the rest
        assert report.served == 4

    def test_per_arrival_features_override_default(self):
        service, sessions = make_service("fifo", num_sessions=1)
        wide = rng.random((3, 8, 8, 8)).astype(np.float32)
        report = simulate(service, sessions,
                          [Arrival(time=0.0, session_index=0, features=wide)],
                          TickCost(), default_features=None)
        assert report.served == 1
        assert service.stats.served_samples == 3

    def test_missing_features_raise(self):
        service, sessions = make_service("fifo", num_sessions=1)
        with pytest.raises(ValueError, match="default_features"):
            simulate(service, sessions, [Arrival(time=0.0, session_index=0)],
                     TickCost())

    def test_repeated_simulate_on_one_service_is_stable(self):
        """Trace times rebase onto the service's monotonic clock, so a
        second replay must report the same latencies — not collapse
        deadline slack against a stale 'now'."""
        scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                      sample_cost_s=0.001,
                                      max_group_samples=16)
        service, sessions = make_service(scheduler)
        trace = bursty_trace(num_sessions=4, bursts=2, burst_size=16,
                             burst_gap_s=0.08, deadline_s=0.04)
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        first = simulate(service, sessions, trace, cost,
                         default_features=FEATURES)
        second = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        assert second.p95_s == pytest.approx(first.p95_s)
        assert second.violations == first.violations
        assert second.ticks == first.ticks
        assert second.makespan_s == pytest.approx(first.makespan_s)


class TestDeadlineBeatsFifoOnBursts:
    """Acceptance: deadline-aware adaptive batching shows lower p95 than
    drain-the-queue FIFO on a bursty arrival trace."""

    COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)

    def run(self, scheduler, deadline_s=0.04):
        service, sessions = make_service(scheduler, num_sessions=4,
                                         max_batch=4)
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=16,
                             burst_gap_s=0.08, deadline_s=deadline_s)
        return simulate(service, sessions, trace, self.COST,
                        default_features=FEATURES)

    def test_deadline_p95_lower_and_fewer_violations(self):
        fifo = self.run("fifo")
        deadline = self.run(DeadlineScheduler(
            pass_overhead_s=self.COST.pass_overhead_s,
            sample_cost_s=self.COST.per_sample_s,
            max_group_samples=16))
        assert fifo.served == deadline.served == 48
        # FIFO's fixed max_batch=4 groups serialise each 16-request burst
        # into 4 passes; the deadline scheduler collapses it into one wide
        # pass, so the burst tail stops queueing behind earlier passes.
        assert deadline.p95_s < fifo.p95_s
        assert deadline.ticks < fifo.ticks
        assert deadline.violations < fifo.violations
        assert deadline.violations == 0

    def test_summary_mentions_scheduler(self):
        report = self.run("fifo")
        assert "fifo" in report.summary()
        assert "p95" in report.summary()


class TestStreamingReports:
    """Sketch-backed reports and lazy trace consumption (PR 9)."""

    def run(self, trace, **kwargs):
        service, sessions = make_service("fifo", num_sessions=4)
        cost = TickCost(0.001, 0.0005, 0.0001)
        return simulate(service, sessions, trace, cost,
                        default_features=FEATURES, **kwargs)

    def stream(self, num_requests=200):
        return iter(poisson_trace(num_sessions=4, num_requests=num_requests,
                                  rate_hz=500.0,
                                  rng=np.random.default_rng(7)))

    def test_generator_trace_defaults_to_sketch_only(self):
        report = self.run(self.stream())
        assert report.served == report.served_total == 200
        assert report.latencies_s == []          # exact lists not retained
        assert report.latencies_by_session == {}
        assert len(report.latency_sketch) == 200
        # Percentiles still answer, from the sketch.
        assert report.p99_s >= report.p50_s > 0.0
        assert report.mean_latency_s > 0.0

    def test_list_trace_defaults_to_exact_lists(self):
        trace = poisson_trace(num_sessions=4, num_requests=100, rate_hz=500.0,
                              rng=np.random.default_rng(7))
        report = self.run(trace)
        assert len(report.latencies_s) == 100
        assert report.served == 100

    def test_tuple_trace_keeps_lists_and_its_stream_does_not(self):
        arrivals = tuple(poisson_trace(num_sessions=4, num_requests=100,
                                       rate_hz=500.0,
                                       rng=np.random.default_rng(7)))
        kept = self.run(arrivals)
        streamed = self.run(iter(arrivals))  # same arrivals, as a stream
        assert len(kept.latencies_s) == 100
        assert sum(map(len, kept.latencies_by_session.values())) == 100
        assert streamed.latencies_s == []
        assert streamed.latencies_by_session == {}
        # Retention changes what is kept, never what is replayed.
        assert streamed.served_total == kept.served_total == 100
        assert streamed.ticks == kept.ticks
        assert streamed.latency_sum_s == kept.latency_sum_s
        assert streamed.p99_s == kept.latency_sketch.percentile(99)

    def test_sketch_tracks_exact_percentiles(self):
        trace = poisson_trace(num_sessions=4, num_requests=400, rate_hz=500.0,
                              rng=np.random.default_rng(7))
        exact = self.run(list(trace))
        sketched = self.run(iter(trace))  # same trace, streamed
        for q in (50, 90, 99):
            assert sketched.percentile(q) == pytest.approx(
                exact.percentile(q), rel=0.05, abs=1e-4)

    def test_session_percentile_falls_back_to_sketch(self):
        report = self.run(self.stream())
        sid = next(iter(report.sketch_by_session))
        assert report.session_percentile(sid, 95) > 0.0
        assert report.session_percentile(999_999, 95) == 0.0

    def test_out_of_order_stream_raises(self):
        def bad():
            yield Arrival(0.5, 0)
            yield Arrival(0.1, 1)  # time went backwards mid-stream
        with pytest.raises(ValueError, match="non-decreasing"):
            self.run(bad())

    def test_out_of_order_list_still_sorted(self):
        trace = [Arrival(0.5, 0), Arrival(0.1, 1)]  # historical contract
        report = self.run(trace)
        assert report.served == 2


class TestOneReplayCore:
    """A bare service and a one-replica fleet of its twin replay a trace
    through one event loop, so every outcome must match, chaos included."""

    COST = TickCost(pass_overhead_s=0.004, per_sample_s=0.0005,
                    per_request_downlink_s=0.0002)
    RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.004, max_delay_s=0.05,
                        jitter=0.1, timeout_s=0.06)
    FEATURES = np.ones((1, 4), dtype=np.float32)

    @staticmethod
    def twin(scheduler, plan, fault_seed):
        if scheduler == "deadline":
            scheduler = DeadlineScheduler(pass_overhead_s=0.004,
                                          sample_cost_s=0.0005,
                                          max_group_samples=8)
        return InferenceService(Server([nn.Identity(), nn.Identity()]),
                                max_batch=4, max_queue=16,
                                scheduler=scheduler,
                                faults=FaultInjector(plan, seed=fault_seed))

    @settings(max_examples=25, deadline=None)
    @given(scheduler=st.sampled_from(["fifo", "fair", "deadline"]),
           frame_fault_rate=st.sampled_from([0.0, 0.1, 0.3]),
           fault_seed=st.integers(0, 2**16),
           crash_at=st.integers(0, 8),
           retry=st.booleans())
    def test_simulate_matches_one_replica_fleet(self, scheduler,
                                                frame_fault_rate,
                                                fault_seed, crash_at,
                                                retry):
        plan = FaultPlan(corrupt_rate=frame_fault_rate / 3,
                         truncate_rate=frame_fault_rate / 3,
                         drop_rate=frame_fault_rate / 3,
                         tick_failures_at=(crash_at,))
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=10,
                             burst_gap_s=0.03, deadline_s=0.05)
        retry = self.RETRY if retry else None
        reports = []
        for fleet_mode in (False, True):
            service = self.twin(scheduler, plan, fault_seed)
            front = ServiceFleet([service]) if fleet_mode else service
            sessions = [front.adopt_session(Client(nn.Identity(),
                                                   nn.Identity()))
                        for _ in range(4)]
            replay = simulate_fleet if fleet_mode else simulate
            reports.append(replay(front, sessions, trace, self.COST,
                                  default_features=self.FEATURES,
                                  retry=retry))
        bare, fleet = reports
        assert fleet.latencies_s == bare.latencies_s
        assert fleet.terminal_counts == bare.terminal_counts
        assert fleet.retries == bare.retries
        assert fleet.tick_failures == bare.tick_failures
        assert fleet.ticks == bare.ticks
        assert fleet.makespan_s == bare.makespan_s
        assert bare.conservation_ok and fleet.conservation_ok


class TestGoldenFleetReplay:
    """One small seeded fleet replay with every control loop engaged —
    autoscaler, admission, client retries, uplink frame faults and a
    replica crash — pinned to its exact outcome.  The invariant tests
    above hold for any outcome; this one fails when a serving change
    moves what a seeded replay serves, retries, migrates or spawns."""

    FEATURES = np.ones((1, 8, 4, 4), dtype=np.float32)
    FRAME_FAULTS = FaultPlan(corrupt_rate=0.02, truncate_rate=0.01,
                             drop_rate=0.02)

    def replay(self):
        seeds = iter(range(11, 100))

        def replica():
            return InferenceService(
                Server([nn.Identity(), nn.Identity()]), max_batch=8,
                max_queue=24, scheduler="fifo",
                faults=FaultInjector(self.FRAME_FAULTS, seed=next(seeds)))

        crash = FaultPlan(replica_faults=(ReplicaFault(replica=1,
                                                       at_s=10.0),))
        fleet = ServiceFleet(
            [replica(), replica()],
            policy=FleetPolicy(heartbeat_interval_s=0.5, suspect_after_s=2.0,
                               down_after_s=4.0, checkpoint_interval_s=5.0),
            faults=FaultInjector(crash, seed=5))
        sessions = [fleet.adopt_session(Client(nn.Identity(), nn.Identity()),
                                        rate_limit=None)
                    for _ in range(200)]
        autoscaler = Autoscaler(fleet, AutoscalePolicy(
            min_replicas=2, max_replicas=4, scale_up_pressure=0.5,
            scale_down_pressure=0.1, smoothing=0.4, patience=2,
            cooldown_s=2.0, check_interval_s=0.25), replica_factory=replica)
        admission = AdmissionController(AdmissionPolicy(
            downgrade_pressure=0.7, reject_pressure=0.95))
        trace = diurnal_trace(len(sessions), 3000, 30.0, period_s=15.0,
                              peak_factor=8.0, seed=3)
        retry = RetryPolicy(max_attempts=4, base_delay_s=0.05,
                            multiplier=2.0, max_delay_s=1.0, jitter=0.1,
                            timeout_s=5.0)
        return simulate_fleet(fleet, sessions, trace,
                              TickCost(0.010, 0.008, 0.0005),
                              default_features=self.FEATURES, retry=retry,
                              autoscaler=autoscaler, admission=admission)

    def test_outcome_is_pinned(self):
        report = self.replay()
        assert report.terminal_counts == {
            "cancelled": 0, "completed": 2996, "failed": 1,
            "rejected": 3, "throttled": 0}
        assert report.ticks == 1230
        assert report.retries == 321
        assert len(report.migration_epsilon_log) == 288
        assert report.spawns == 2
        assert report.drains_scaled == 2
        assert report.failovers == 1
        assert report.duplicate_serves == 0
        assert report.conservation_ok
