"""Tests for deterministic fault injection, retry/backoff, and the
overload degradation ladder."""

import numpy as np
import pytest

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.models.resnet import ResNet, ResNetConfig
from repro.serving import (
    Arrival,
    BackpressureError,
    Codec,
    FaultInjector,
    FaultPlan,
    InferenceService,
    OverloadController,
    OverloadPolicy,
    ProtocolError,
    RateLimitedError,
    RequestState,
    RetryPolicy,
    TickCost,
    TickFailedError,
    UploadRequest,
    bursty_trace,
    simulate,
)
from repro.serving.faults import (
    UPLINK_CORRUPT,
    UPLINK_DROP,
    UPLINK_OK,
    UPLINK_TRUNCATE,
)
from repro.utils.rng import new_rng

rng = np.random.default_rng(31)

FEATURES = rng.random((1, 8, 8, 8)).astype(np.float32)


def tiny_bodies(num_nets=2):
    config = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_service(num_sessions=2, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_queue", 64)
    service = InferenceService(Server(tiny_bodies()), **kwargs)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(num_sessions)]
    return service, sessions


class TestFaultPlan:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="corrupt_rate"):
            FaultPlan(corrupt_rate=1.5)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=-0.1)

    def test_rejects_rates_summing_past_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            FaultPlan(corrupt_rate=0.5, truncate_rate=0.4, drop_rate=0.2)

    def test_frame_fault_rate_sums(self):
        plan = FaultPlan(corrupt_rate=0.1, truncate_rate=0.2, drop_rate=0.3)
        assert plan.frame_fault_rate == pytest.approx(0.6)


class TestFaultInjectorDeterminism:
    def test_same_seed_same_outcome_sequence(self):
        plan = FaultPlan(corrupt_rate=0.2, truncate_rate=0.2, drop_rate=0.2)
        a = FaultInjector(plan, seed=42)
        b = FaultInjector(plan, seed=42)
        outcomes_a = [a.upload_outcome() for _ in range(200)]
        outcomes_b = [b.upload_outcome() for _ in range(200)]
        assert outcomes_a == outcomes_b
        assert a.stats.as_dict() == b.stats.as_dict()
        # All four outcomes occur at these rates over 200 draws.
        assert set(outcomes_a) == {UPLINK_OK, UPLINK_CORRUPT,
                                   UPLINK_TRUNCATE, UPLINK_DROP}

    def test_reset_replays_identically(self):
        injector = FaultInjector(FaultPlan(drop_rate=0.5), seed=7)
        first = [injector.upload_outcome() for _ in range(50)]
        injector.reset()
        assert [injector.upload_outcome() for _ in range(50)] == first

    def test_mangle_always_changes_the_frame(self):
        injector = FaultInjector(FaultPlan(corrupt_rate=1.0), seed=0)
        frame = UploadRequest(1, 0, FEATURES).to_bytes()
        for _ in range(25):
            corrupted = injector.mangle(frame, UPLINK_CORRUPT)
            assert corrupted != frame and len(corrupted) == len(frame)
            truncated = injector.mangle(frame, UPLINK_TRUNCATE)
            assert len(truncated) < len(frame)

    def test_tick_failures_at_is_deterministic(self):
        injector = FaultInjector(FaultPlan(tick_failures_at=(0, 3)), seed=0)
        fired = [injector.tick_fails(i) for i in range(5)]
        assert fired == [True, False, False, True, False]
        assert injector.stats.tick_failures == 2


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.01, multiplier=2.0,
                             max_delay_s=0.05, jitter=0.0)
        delays = [policy.delay_s(k) for k in range(5)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        jrng = np.random.default_rng(3)
        delay = policy.delay_s(0, jrng)
        assert 0.1 <= delay <= 0.15
        assert policy.delay_s(0, np.random.default_rng(3)) == delay

    def test_retryable_covers_transient_errors_only(self):
        policy = RetryPolicy()
        assert policy.retryable(BackpressureError("full"))
        assert policy.retryable(RateLimitedError("slow down"))
        assert policy.retryable(ProtocolError("bad crc"))
        assert policy.retryable(TickFailedError("crashed"))
        assert not policy.retryable(KeyError("nope"))
        assert not policy.retryable(ValueError("nope"))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)


class TestWireFaultsInService:
    def test_corrupt_frame_raises_protocol_error_and_counts(self):
        faults = FaultInjector(FaultPlan(corrupt_rate=1.0), seed=1)
        service, (session,) = make_service(num_sessions=1, faults=faults)
        with pytest.raises(ProtocolError):
            session.submit_features(FEATURES)
        assert service.stats.corrupt_frames == 1
        assert service.pending == 0
        assert session.request_state(0) is RequestState.FAILED

    def test_dropped_frame_never_reaches_the_queue(self):
        faults = FaultInjector(FaultPlan(drop_rate=1.0), seed=1)
        service, (session,) = make_service(num_sessions=1, faults=faults)
        request_id = session.submit_features(FEATURES)  # "succeeds"
        assert service.pending == 0
        assert service.stats.dropped_frames == 1
        # The client believes it is in flight: non-terminal QUEUED state.
        assert session.request_state(request_id) is RequestState.QUEUED

    def test_retry_after_drop_requeues_cleanly(self):
        faults = FaultInjector(FaultPlan(drop_rate=1.0), seed=1)
        service, (session,) = make_service(num_sessions=1, faults=faults)
        request_id = session.submit_features(FEATURES)
        # Loss detected client-side; the wire heals and the same id retries.
        service.faults = None
        session.submit_features(FEATURES, request_id=request_id)
        assert service.pending == 1
        service.run_until_idle()
        assert session.request_state(request_id) is RequestState.COMPLETED
        assert session.result(request_id).shape[0] == 1

    def test_retry_of_surviving_request_is_deduplicated(self):
        service, (session,) = make_service(num_sessions=1)
        request_id = session.submit_features(FEATURES)
        session.submit_features(FEATURES, request_id=request_id)  # retransmit
        assert service.pending == 1  # not queued twice
        assert service.stats.deduped_requests == 1
        service.run_until_idle()
        assert service.stats.served_requests == 1

    def test_submit_retry_policy_rerolls_the_wire(self):
        # 50% corruption: with backoff retries the submit eventually lands.
        faults = FaultInjector(FaultPlan(corrupt_rate=0.5), seed=5)
        service, (session,) = make_service(num_sessions=1, faults=faults)
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.001)
        request_id = session.submit_features(FEATURES, retry=policy)
        assert service.pending == 1
        service.run_until_idle()
        assert session.request_state(request_id) is RequestState.COMPLETED


class TestTickFailures:
    def test_injected_crash_requeues_then_serves(self):
        faults = FaultInjector(FaultPlan(tick_failures_at=(0,)))
        service, (session,) = make_service(num_sessions=1, faults=faults,
                                           tick_retries=1)
        request_id = session.submit_features(FEATURES)
        assert service.tick() == []  # the crashed pass
        assert service.stats.tick_failures == 1
        assert service.pending == 1  # requeued, not lost
        responses = service.tick()
        assert len(responses) == 1
        assert session.request_state(request_id) is RequestState.COMPLETED

    def test_crashes_beyond_retries_fail_terminally(self):
        faults = FaultInjector(FaultPlan(tick_failures_at=(0, 1, 2)))
        service, (session,) = make_service(num_sessions=1, faults=faults,
                                           tick_retries=2)
        request_id = session.submit_features(FEATURES)
        ticks = service.run_until_idle()
        assert ticks == 3  # three crashed attempts, then the queue is empty
        assert service.stats.tick_failures == 3
        assert service.stats.failed_requests == 1
        assert session.request_state(request_id) is RequestState.FAILED
        with pytest.raises(TickFailedError):
            session.result(request_id)

    def test_real_compute_exception_follows_same_recovery(self):
        service, (session,) = make_service(num_sessions=1, tick_retries=0)
        request_id = session.submit_features(FEATURES)
        original = service.server.compute
        service.server.compute = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("worker died"))
        try:
            assert service.tick() == []  # never raises
        finally:
            service.server.compute = original
        assert service.stats.tick_failures == 1
        assert session.request_state(request_id) is RequestState.FAILED

    def test_record_capture_not_duplicated_across_retries(self):
        faults = FaultInjector(FaultPlan(tick_failures_at=(0,)))
        service, (session,) = make_service(num_sessions=1, faults=faults)
        session.submit_features(FEATURES, record=True)
        service.run_until_idle()
        assert len(service.server.observed_features) == 1


class TestOverloadController:
    def test_hysteresis_climbs_and_recovers(self):
        ctl = OverloadController(OverloadPolicy(high_watermark=0.75,
                                                low_watermark=0.25,
                                                patience_ticks=2))
        assert ctl.observe(80, 100) == 0  # one hot tick: patience holds
        assert ctl.observe(80, 100) == 1  # second consecutive: climb
        assert ctl.escalations == 1
        assert ctl.shed_best_effort
        assert ctl.observe(50, 100) == 1  # in-band: hold (counters reset)
        assert ctl.observe(10, 100) == 1
        assert ctl.observe(10, 100) == 0  # two quiet ticks: recover
        assert ctl.recoveries == 1

    def test_single_burst_does_not_escalate(self):
        ctl = OverloadController(OverloadPolicy(patience_ticks=3))
        for pending in (90, 90, 40, 90, 90, 40):  # never 3 consecutive
            ctl.observe(pending, 100)
        assert ctl.level == 0 and ctl.escalations == 0

    def test_codec_narrowing_is_monotone(self):
        ctl = OverloadController()
        ctl.level = 2
        assert ctl.codec_for(Codec.FP32) is Codec.FP16
        assert ctl.codec_for(Codec.FP16) is Codec.INT8
        assert ctl.codec_for(Codec.INT8) is Codec.INT8
        ctl.level = 0
        assert ctl.codec_for(Codec.FP32) is Codec.FP32

    def test_num_bodies_shrinks_at_deepest_level(self):
        ctl = OverloadController(OverloadPolicy(min_ensemble_fraction=0.5))
        assert ctl.num_bodies(8) == 8
        ctl.level = 3
        assert ctl.num_bodies(8) == 4
        assert ctl.num_bodies(5) == 3  # ceil
        assert ctl.num_bodies(1) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="high_watermark"):
            OverloadPolicy(high_watermark=0.0)
        with pytest.raises(ValueError, match="low_watermark"):
            OverloadPolicy(low_watermark=0.9, high_watermark=0.8)
        with pytest.raises(ValueError, match="min_ensemble_fraction"):
            OverloadPolicy(min_ensemble_fraction=0.0)


class TestOverloadInService:
    def make_overloaded(self, **kwargs):
        policy = OverloadPolicy(high_watermark=0.5, low_watermark=0.1,
                                patience_ticks=1, min_ensemble_fraction=0.5)
        return make_service(num_sessions=2, max_batch=2, max_queue=8,
                            overload=policy, **kwargs)

    def fill(self, session, n):
        for _ in range(n):
            session.submit_features(FEATURES)

    def test_best_effort_shed_under_pressure(self):
        service, sessions = self.make_overloaded()
        best_effort = service.adopt_session(
            Client(nn.Identity(), nn.Identity()), weight=0.0)
        self.fill(sessions[0], 6)  # 6/8 > high watermark
        service.tick()  # observe → level 1
        assert service.overload.level == 1
        with pytest.raises(BackpressureError, match="best-effort"):
            best_effort.submit_features(FEATURES)
        assert service.stats.shed_best_effort == 1
        assert best_effort.request_state(0) is RequestState.REJECTED
        # Paying (weight > 0) tenants are still admitted at level 1.
        sessions[1].submit_features(FEATURES)

    def test_codec_narrows_then_recovers(self):
        service, sessions = self.make_overloaded()
        self.fill(sessions[0], 6)
        service.tick()  # level 1
        service.tick()  # level 2: narrow-codec active for this pass
        assert service.overload.level == 2
        assert service.stats.degraded_responses > 0
        response = sessions[0].take_response(2)  # served during level-2 tick
        assert response is not None
        assert response.degraded
        assert response.codec is Codec.FP16  # fp32 narrowed one step
        service.run_until_idle()
        for _ in range(4):  # quiet ticks walk the ladder back down
            service.tick()
        assert service.overload.level == 0
        assert service.overload.recoveries >= 2

    def test_ensemble_shrink_aliases_all_positions(self):
        service, sessions = self.make_overloaded()
        self.fill(sessions[0], 8)  # brim-full: pressure survives the drain
        for _ in range(3):
            service.tick()  # climb to level 3
        assert service.overload.level == 3
        request_id = sessions[1].submit_features(FEATURES)
        service.run_until_idle()
        response = sessions[1].take_response(request_id)
        assert response.degraded
        # The selector still sees all N positions; the shrunken pass
        # aliased the unserved maps onto the computed subset.
        assert response.num_nets == service.num_nets
        outs = response.decoded()
        np.testing.assert_array_equal(outs[0], outs[1])  # 2 bodies → k=1

    def test_subset_pass_matches_prefix_bodies(self):
        server = Server(tiny_bodies(num_nets=3))
        full = server.compute(FEATURES)
        subset = server.compute(FEATURES, num_bodies=2)
        assert len(subset) == 2
        for a, b in zip(subset, full[:2]):
            np.testing.assert_allclose(a, b, atol=1e-5)
        with pytest.raises(ValueError, match="num_bodies"):
            server.compute(FEATURES, num_bodies=4)


class TestChaosSimulation:
    PLAN = FaultPlan(corrupt_rate=0.03, drop_rate=0.02, delay_rate=0.1,
                     delay_s=0.002, tick_failures_at=(2,))

    def run_chaos(self, seed=0):
        faults = FaultInjector(self.PLAN, seed=seed)
        service, sessions = make_service(num_sessions=4, max_batch=4,
                                         faults=faults, tick_retries=1)
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=8,
                             burst_gap_s=0.1)
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.002,
                            timeout_s=0.05)
        return simulate(service, sessions, trace, cost,
                        default_features=FEATURES, retry=retry)

    def test_conservation_under_chaos(self):
        report = self.run_chaos()
        assert report.submitted == 24
        assert report.conservation_ok
        assert sum(report.terminal_counts.values()) == 24
        assert report.tick_failures >= 1

    def test_chaos_replay_is_deterministic(self):
        first = self.run_chaos(seed=9)
        second = self.run_chaos(seed=9)
        assert first.terminal_counts == second.terminal_counts
        assert first.retries == second.retries
        assert first.p95_s == pytest.approx(second.p95_s)

    def test_retries_recover_most_of_the_trace(self):
        report = self.run_chaos()
        assert report.served >= 20  # ≥ 0.85 goodput of 24 under ~5% faults
        assert report.goodput_rps > 0

    def test_fault_free_baseline_serves_everything(self):
        service, sessions = make_service(num_sessions=4, max_batch=4)
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=8,
                             burst_gap_s=0.1)
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        report = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        assert report.served == report.submitted == 24
        assert report.conservation_ok
        assert report.terminal_counts["completed"] == 24
        assert report.retries == 0 and report.tick_failures == 0
