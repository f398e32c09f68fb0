"""Regression tests for the request lifecycle: the ServingError contract,
deadlines that order but never shed, cancellation under every scheduler,
and conservation."""

import numpy as np
import pytest

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.models.resnet import ResNet, ResNetConfig
from repro.serving import (
    TERMINAL_STATES,
    Arrival,
    BackpressureError,
    DeadlineScheduler,
    FaultInjector,
    FaultPlan,
    InferenceService,
    NoResultError,
    PrivacyExhaustedError,
    ProtocolError,
    RateLimit,
    RateLimitedError,
    RequestCancelledError,
    RequestState,
    ServingError,
    TickCost,
    TickFailedError,
    UnknownSessionError,
    UploadRequest,
    bursty_trace,
    simulate,
)
from repro.utils.rng import new_rng

rng = np.random.default_rng(41)

FEATURES = rng.random((1, 8, 8, 8)).astype(np.float32)

ALL_SCHEDULERS = ["fifo", "fair", "weighted", "deadline"]


def tiny_bodies(num_nets=2):
    config = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_service(scheduler="fifo", num_sessions=2, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_queue", 8)
    service = InferenceService(Server(tiny_bodies()), scheduler=scheduler,
                               **kwargs)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(num_sessions)]
    return service, sessions


class TestErrorHierarchy:
    def test_every_serving_exception_derives_from_serving_error(self):
        for exc_type in (BackpressureError, RateLimitedError, ProtocolError,
                         UnknownSessionError, NoResultError,
                         TickFailedError, RequestCancelledError,
                         PrivacyExhaustedError):
            assert issubclass(exc_type, ServingError)

    def test_compat_aliases(self):
        # Pre-hierarchy callers caught ValueError / KeyError; both still work.
        assert issubclass(ProtocolError, ValueError)
        assert issubclass(UnknownSessionError, KeyError)
        assert issubclass(NoResultError, KeyError)

    def test_submit_never_raises_outside_serving_error(self):
        """The safety-net contract: whatever goes wrong at submit — full
        queues, empty token buckets, closed sessions, mangled wires — the
        client's single ``except ServingError`` must catch it."""
        faults = FaultInjector(FaultPlan(corrupt_rate=0.3, truncate_rate=0.3,
                                         drop_rate=0.2), seed=11)
        service, sessions = make_service(num_sessions=3, max_queue=2,
                                         faults=faults,
                                         rate_limit=RateLimit(rate_per_s=50.0,
                                                              burst=2.0))
        closed = sessions[2]
        service.close_session(closed)
        raised: list[BaseException] = []
        for i in range(120):
            session = (closed, *sessions[:2])[i % 3]
            try:
                session.submit_features(FEATURES)
            except BaseException as exc:  # noqa: BLE001 — the point of the test
                raised.append(exc)
            if i % 7 == 0:
                service.tick()
                service.advance_clock(service.now + 0.01)
        assert raised, "fuzz loop must actually exercise failures"
        for exc in raised:
            assert isinstance(exc, ServingError), (
                f"submit leaked a non-ServingError: {type(exc).__name__}: {exc}")

    def test_unknown_session_is_typed(self):
        service, _ = make_service()
        with pytest.raises(UnknownSessionError):
            service.submit(UploadRequest(99, 0, FEATURES))

    def test_result_never_raises_outside_serving_error(self):
        """The same contract at ``result``: every id without a served
        response raises a typed error, whatever state it is in."""
        faults = FaultInjector(FaultPlan(tick_failures_at=(0, 1)), seed=0)
        service, (session, other) = make_service(
            num_sessions=2, max_batch=1, max_queue=2, faults=faults,
            tick_retries=1, rate_limit=RateLimit(rate_per_s=1.0, burst=3.0))
        failed = session.submit_features(FEATURES)
        service.tick()
        service.tick()  # the second crash exhausts the one retry
        consumed = session.submit_features(FEATURES)
        service.tick()
        session.result(consumed)
        queued = session.submit_features(FEATURES)
        other.submit_features(FEATURES)  # the queue is now full
        other_rejected = other.reserve_request_id()
        with pytest.raises(BackpressureError):
            other.submit_features(FEATURES, request_id=other_rejected)
        throttled = session.reserve_request_id()
        with pytest.raises(RateLimitedError):  # burst 3 spent
            session.submit_features(FEATURES, request_id=throttled)
        assert session.request_state(queued) is RequestState.QUEUED
        with pytest.raises(NoResultError, match="no\\s+result yet"):
            session.result(queued)
        service.run_until_idle()
        cancelled = other.submit_features(FEATURES)
        service.close_session(other)
        expected = [(session, failed, RequestState.FAILED, TickFailedError),
                    (session, consumed, RequestState.COMPLETED, NoResultError),
                    (session, throttled, RequestState.THROTTLED, NoResultError),
                    (other, other_rejected, RequestState.REJECTED,
                     NoResultError),
                    (other, cancelled, RequestState.CANCELLED,
                     RequestCancelledError),
                    (session, 99, None, NoResultError)]
        for owner, request_id, state, error in expected:
            assert owner.request_state(request_id) is state
            with pytest.raises(error) as raised:
                owner.result(request_id)
            assert isinstance(raised.value, ServingError)

    def test_privacy_refused_result_is_typed(self):
        service, _ = make_service(max_batch=2)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                        privacy=(2.0, 1000.0, 1))
        first = session.submit_features(FEATURES)
        refused = session.submit_features(FEATURES)
        service.tick()  # the first response spends the last query
        assert session.request_state(refused) is RequestState.REJECTED
        session.result(first)
        with pytest.raises(PrivacyExhaustedError):
            session.result(refused)


class TestDeadlines:
    def test_deadline_scheduler_serves_requests_without_deadline(self):
        # A request without an explicit SLO queues behind deadlined work
        # under the deadline policy, for as long as it takes, and serves.
        scheduler = DeadlineScheduler()
        service, (session, _) = make_service(scheduler)
        request_id = session.submit_features(FEATURES)  # no explicit deadline
        service.advance_clock(10.0)
        responses = service.tick()
        assert len(responses) == 1
        assert session.request_state(request_id) is RequestState.COMPLETED

    def test_passed_deadline_is_served_late_not_shed(self):
        service, (session, _) = make_service()
        request_id = session.submit_features(FEATURES, deadline=0.01)
        service.advance_clock(1.0)
        assert len(service.tick()) == 1
        assert session.request_state(request_id) is RequestState.COMPLETED


class TestCancellation:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_close_session_cancels_queued_requests(self, scheduler):
        service, sessions = make_service(scheduler, num_sessions=2)
        victim, survivor = sessions
        victim_ids = [victim.submit_features(FEATURES) for _ in range(3)]
        survivor_id = survivor.submit_features(FEATURES)
        service.close_session(victim)
        assert service.stats.cancelled_requests == 3
        for request_id in victim_ids:
            assert victim.request_state(request_id) is RequestState.CANCELLED
            with pytest.raises(RequestCancelledError):
                victim.result(request_id)
        # The surviving tenant's work is untouched and still serves.
        service.run_until_idle()
        assert survivor.request_state(survivor_id) is RequestState.COMPLETED

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_cancelled_exactly_once(self, scheduler):
        service, sessions = make_service(scheduler, num_sessions=1)
        session = sessions[0]
        session.submit_features(FEATURES)
        service.close_session(session)
        service.close_session(session)  # idempotent: nothing left to cancel
        assert service.stats.cancelled_requests == 1
        states = list(session.request_states().values())
        assert states == [RequestState.CANCELLED]

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_mid_burst_disconnect_in_simulate(self, scheduler):
        if scheduler == "deadline":
            scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                          sample_cost_s=0.001)
        service, sessions = make_service(scheduler, num_sessions=3,
                                         max_queue=64)
        trace = bursty_trace(num_sessions=3, bursts=2, burst_size=6,
                             burst_gap_s=0.1)
        # Session 0 disconnects in the middle of the first burst: the close
        # lands at the same instant as the burst but after its submissions
        # (stable sort keeps appended events last), before any tick runs.
        trace.append(Arrival(time=0.0, session_index=0, close_session=True))
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        report = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        assert report.conservation_ok
        assert report.submitted == 12
        assert sum(report.terminal_counts.values()) == 12
        cancelled = report.terminal_counts[RequestState.CANCELLED.value]
        assert cancelled >= 1
        assert service.stats.cancelled_requests == cancelled
        # Burst 2's session-0 arrivals hit a closed session: REJECTED-free
        # but FAILED client-side by the conservation sweep (UnknownSession
        # is not retryable) — never silently dropped.
        assert report.served + cancelled < 12


class TestConservation:
    def test_terminal_states_cover_every_submission(self):
        service, sessions = make_service(num_sessions=2, max_queue=4)
        trace = [Arrival(time=0.0, session_index=i % 2) for i in range(10)]
        report = simulate(service, sessions, trace, TickCost(),
                          default_features=FEATURES)
        assert report.conservation_ok
        assert report.submitted == 10
        assert set(report.terminal_counts) == {s.value for s in TERMINAL_STATES}
        assert report.terminal_counts["completed"] == report.served
        assert report.terminal_counts["rejected"] == report.rejected == 6

    def test_abandoned_drops_resolve_failed(self):
        # Every frame is dropped and there is no retry policy: the sweep
        # must resolve the abandoned in-flight requests as FAILED.
        faults = FaultInjector(FaultPlan(drop_rate=1.0), seed=3)
        service, sessions = make_service(num_sessions=1, faults=faults)
        trace = [Arrival(time=0.0, session_index=0) for _ in range(4)]
        report = simulate(service, sessions, trace, TickCost(),
                          default_features=FEATURES)
        assert report.served == 0
        assert report.conservation_ok
        assert report.terminal_counts["failed"] == 4

    def test_final_state_wins_for_retried_requests(self):
        # THROTTLED on the first attempt, COMPLETED on the retry: the
        # request counts exactly once, as its final state.
        service, (session,) = make_service(
            num_sessions=1, rate_limit=RateLimit(rate_per_s=10.0, burst=1.0))
        first = session.submit_features(FEATURES)
        reserved = session.reserve_request_id()
        with pytest.raises(RateLimitedError):
            session.submit_features(FEATURES, request_id=reserved)
        assert session.request_state(reserved) is RequestState.THROTTLED
        service.advance_clock(1.0)  # the bucket refills
        session.submit_features(FEATURES, request_id=reserved)
        service.run_until_idle()
        assert session.request_state(first) is RequestState.COMPLETED
        assert session.request_state(reserved) is RequestState.COMPLETED
        assert service.stats.throttled_requests == 1  # the attempt, counted

    def test_states_terminal_flags(self):
        assert not RequestState.QUEUED.terminal
        assert all(s.terminal for s in TERMINAL_STATES)
        assert RequestState.REJECTED.retryable
        assert RequestState.THROTTLED.retryable
        assert RequestState.FAILED.retryable
        assert not RequestState.CANCELLED.retryable
        assert not RequestState.COMPLETED.retryable
