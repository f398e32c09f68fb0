"""Tests for the pluggable Scheduler API (fifo / fair-share / deadline)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ci import Channel, EnsembleCIPipeline, Server
from repro.ci.pipeline import Client
from repro.core.selector import Selector
from repro.models.resnet import ResNet, ResNetConfig, ResNetHead, ResNetTail
from repro.serving import (
    SCHEDULERS,
    DeadlineScheduler,
    FairShareScheduler,
    FifoScheduler,
    InferenceService,
    Scheduler,
    UploadRequest,
    make_scheduler,
)
from repro.utils.rng import new_rng

rng = np.random.default_rng(11)


def tiny_config(num_classes=4):
    return ResNetConfig(num_classes=num_classes, stem_channels=8,
                        stage_channels=(8, 16), blocks_per_stage=(1, 1),
                        use_maxpool=True)


def make_bodies(num_nets=3, config=None):
    config = config or tiny_config()
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_client_parts(config, num_nets, num_active, seed=0):
    head = ResNetHead(config, new_rng(50 + seed)).eval()
    tail = ResNetTail(config, new_rng(80 + seed), in_multiplier=num_active).eval()
    selector = Selector.random(num_nets, num_active, rng=new_rng(110 + seed))
    return head, tail, selector


def request(session_id, request_id, batch=1, shape=(4, 2, 2), deadline=None,
            arrival=0.0):
    features = rng.random((batch, *shape)).astype(np.float32)
    return UploadRequest(session_id, request_id, features,
                         arrival_time=arrival, deadline=deadline)


class TestRegistry:
    def test_by_name_and_alias(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("fair"), FairShareScheduler)
        assert isinstance(make_scheduler("deadline"), DeadlineScheduler)

    def test_instance_passthrough(self):
        scheduler = DeadlineScheduler(max_group_samples=5)
        assert make_scheduler(scheduler) is scheduler

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("lifo")

    def test_service_accepts_instance(self):
        service = InferenceService(Server(make_bodies(2)),
                                   scheduler=FairShareScheduler())
        assert service.config.scheduler == "fair"
        assert isinstance(service.scheduler, FairShareScheduler)

    def test_custom_subclass_auto_registers_and_serves(self):
        """Subclassing with a fresh name is the extension point: the
        instance must pass config validation and resolve by name too."""
        from repro.serving import SCHEDULERS

        class ReverseFifo(FifoScheduler):
            name = "test-reverse-fifo"

            def next_group(self, max_batch, now=0.0):
                return list(reversed(super().next_group(max_batch, now=now)))

        try:
            service = InferenceService(Server(make_bodies(2)),
                                       scheduler=ReverseFifo())
            assert service.config.scheduler == "test-reverse-fifo"
            assert isinstance(make_scheduler("test-reverse-fifo"), ReverseFifo)
        finally:
            SCHEDULERS.pop("test-reverse-fifo", None)

    def test_subclass_cannot_shadow_builtin_name(self):
        from repro.serving import SCHEDULERS

        class NotFifo(Scheduler):
            name = "fifo"

        assert SCHEDULERS["fifo"] is FifoScheduler


class TestFifoEquivalence:
    """Acceptance: FifoScheduler is bit-exact with the PR-3 service —
    identical response order, outputs <= 1e-5 and byte-for-byte identical
    per-session TransferStats vs. sequential pipeline serves."""

    def make_deployment(self, num_sessions=3, num_nets=4, num_active=2):
        config = tiny_config()
        bodies = make_bodies(num_nets, config)
        service = InferenceService(Server(bodies), max_batch=16, max_queue=32,
                                   scheduler="fifo")
        sessions = []
        for s in range(num_sessions):
            head, tail, selector = make_client_parts(config, num_nets,
                                                     num_active, seed=s)
            sessions.append(service.open_session(
                head, tail, selector=selector, noise_seed=700 + s,
                noise_shape=config.intermediate_shape(16)))
        return bodies, service, sessions

    def test_matches_sequential_pipeline_serves(self):
        bodies, service, sessions = self.make_deployment()
        images = [rng.random((b, 3, 16, 16)).astype(np.float32)
                  for b in (1, 3, 2)]
        request_ids = [s.submit(im, record=True)
                       for s, im in zip(sessions, images)]
        responses = []
        while service.pending:
            responses.extend(service.tick())
        # FIFO never reorders: responses come back in submission order.
        assert [r.session_id for r in responses] == [s.session_id
                                                    for s in sessions]
        coalesced = [s.result(r) for s, r in zip(sessions, request_ids)]
        reference_server = Server(list(bodies))
        for session, batch, got in zip(sessions, images, coalesced):
            pipeline = EnsembleCIPipeline(session.client, reference_server,
                                          Channel())
            want = pipeline.infer(batch, record=True)
            np.testing.assert_allclose(got, want, atol=1e-5)
            assert session.stats == pipeline.channel.stats  # byte-for-byte
        # Same record-capture order as K sequential record=True serves.
        assert len(service.server.observed_features) == len(
            reference_server.observed_features)
        for got, want in zip(service.server.observed_features,
                             reference_server.observed_features):
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_group_formation_is_prefix_only(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(request(1, 0))
        scheduler.enqueue(request(2, 0, shape=(4, 3, 3)))  # key break
        scheduler.enqueue(request(1, 1))
        group = scheduler.next_group(max_batch=8)
        assert [(r.session_id, r.request_id) for r in group] == [(1, 0)]
        assert scheduler.pending == 2

    def test_cancel_session(self):
        scheduler = FifoScheduler()
        for i in range(3):
            scheduler.enqueue(request(1, i))
        scheduler.enqueue(request(2, 0))
        assert len(scheduler.cancel_session(1)) == 3
        assert scheduler.pending == 1
        assert scheduler.cancel_session(99) == []


class TestFairShare:
    def test_chatty_tenant_cannot_monopolise_a_tick(self):
        scheduler = FairShareScheduler()
        for i in range(6):
            scheduler.enqueue(request(1, i))  # the chatty tenant
        scheduler.enqueue(request(2, 0))
        scheduler.enqueue(request(3, 0))
        group = scheduler.next_group(max_batch=4)
        served = [r.session_id for r in group]
        # leader + one per waiting session before the leader's second
        assert served == [1, 2, 3, 1]

    def test_leadership_rotates_across_ticks(self):
        scheduler = FairShareScheduler()
        for sid in (1, 2, 3):
            scheduler.enqueue(request(sid, 0))
            scheduler.enqueue(request(sid, 1))
        first = scheduler.next_group(max_batch=3)
        second = scheduler.next_group(max_batch=3)
        assert [r.session_id for r in first] == [1, 2, 3]
        assert [r.session_id for r in second] == [2, 3, 1]

    def test_per_session_order_is_fifo(self):
        scheduler = FairShareScheduler()
        for i in range(3):
            scheduler.enqueue(request(7, i))
        group = scheduler.next_group(max_batch=8)
        assert [r.request_id for r in group] == [0, 1, 2]

    def test_key_mismatch_skips_session_not_tick(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue(request(1, 0))
        scheduler.enqueue(request(2, 0, shape=(4, 3, 3)))
        scheduler.enqueue(request(3, 0))
        group = scheduler.next_group(max_batch=8)
        assert [r.session_id for r in group] == [1, 3]
        assert scheduler.pending == 1  # session 2 waits for its own tick

    def test_cancel_session_removes_rotation_entry(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue(request(1, 0))
        scheduler.enqueue(request(2, 0))
        assert len(scheduler.cancel_session(1)) == 1
        group = scheduler.next_group(max_batch=4)
        assert [r.session_id for r in group] == [2]
        assert scheduler.pending == 0

    def test_service_level_fairness(self):
        """Through the full service: a flood from tenant A still leaves
        room for B and C in the first stacked pass."""
        config = tiny_config()
        bodies = make_bodies(3, config)
        service = InferenceService(Server(bodies), max_batch=4, max_queue=32,
                                   scheduler="fair")
        clients = []
        for s in range(3):
            head, tail, selector = make_client_parts(config, 3, 2, seed=s)
            clients.append(service.open_session(head, tail, selector=selector))
        chatty, quiet_b, quiet_c = clients
        images = rng.random((1, 3, 16, 16)).astype(np.float32)
        for _ in range(5):
            chatty.submit(images)
        rid_b = quiet_b.submit(images)
        rid_c = quiet_c.submit(images)
        service.tick()
        assert quiet_b.has_result(rid_b)
        assert quiet_c.has_result(rid_c)
        assert chatty.outstanding == 3  # 2 of 5 served in the first tick


class TestDeadline:
    def test_earliest_deadline_first(self):
        scheduler = DeadlineScheduler(max_group_samples=1)
        scheduler.enqueue(request(1, 0, deadline=0.9))
        scheduler.enqueue(request(2, 0, deadline=0.1))
        scheduler.enqueue(request(3, 0, deadline=0.5))
        order = [scheduler.next_group(8, now=0.0)[0].session_id
                 for _ in range(3)]
        assert order == [2, 3, 1]

    def test_group_grows_while_slack_allows(self):
        scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                      sample_cost_s=0.001)
        for i in range(16):
            scheduler.enqueue(request(1, i, deadline=0.100))
        group = scheduler.next_group(max_batch=4, now=0.0)  # max_batch ignored
        assert len(group) == 16  # 10ms + 16ms fits a 100ms slack

    def test_group_capped_by_slack(self):
        scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                      sample_cost_s=0.010)
        for i in range(16):
            scheduler.enqueue(request(1, i, deadline=0.050))
        group = scheduler.next_group(max_batch=16, now=0.0)
        # 10ms overhead + k*10ms must fit 50ms slack -> at most 4 samples
        assert len(group) == 4
        assert scheduler.pending == 12

    def test_leader_always_served_even_past_deadline(self):
        scheduler = DeadlineScheduler(pass_overhead_s=1.0, sample_cost_s=1.0)
        scheduler.enqueue(request(1, 0, deadline=0.001))
        group = scheduler.next_group(8, now=5.0)  # already blown
        assert len(group) == 1

    def test_group_capped_by_samples(self):
        scheduler = DeadlineScheduler(max_group_samples=3)
        for i in range(5):
            scheduler.enqueue(request(1, i, deadline=1.0))
        assert len(scheduler.next_group(16, now=0.0)) == 3

    def test_key_mismatch_preserves_edf_for_later_ticks(self):
        scheduler = DeadlineScheduler()
        scheduler.enqueue(request(1, 0, deadline=0.2))
        scheduler.enqueue(request(2, 0, deadline=0.1, shape=(4, 3, 3)))
        group = scheduler.next_group(8, now=0.0)
        assert [r.session_id for r in group] == [2]  # EDF leader wins
        assert [r.session_id for r in scheduler.next_group(8, now=0.0)] == [1]

    def test_next_event_time_waits_until_slack_runs_out(self):
        scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                      sample_cost_s=0.001,
                                      max_group_samples=64)
        scheduler.enqueue(request(1, 0, deadline=0.100))
        # one sample: est 11ms -> latest safe start 89ms
        assert scheduler.next_event_time(0.0) == pytest.approx(0.089)
        assert scheduler.next_event_time(0.095) == 0.095  # never in the past

    def test_next_event_time_fires_now_when_budget_full(self):
        scheduler = DeadlineScheduler(max_group_samples=2)
        scheduler.enqueue(request(1, 0, deadline=9.0))
        scheduler.enqueue(request(1, 1, deadline=9.0))
        assert scheduler.next_event_time(0.0) == 0.0

    def test_next_event_time_without_deadlines_is_now(self):
        scheduler = DeadlineScheduler()
        assert scheduler.next_event_time(3.0) == math.inf  # empty queue
        scheduler.enqueue(request(1, 0))
        assert scheduler.next_event_time(3.0) == 3.0

    def test_cancel_session(self):
        scheduler = DeadlineScheduler()
        scheduler.enqueue(request(1, 0, deadline=0.5))
        scheduler.enqueue(request(2, 0, deadline=0.1))
        assert len(scheduler.cancel_session(1)) == 1
        assert scheduler.pending == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduler(pass_overhead_s=-1.0)
        with pytest.raises(ValueError):
            DeadlineScheduler(max_group_samples=0)


class TestDefaultEventTime:
    def test_fifo_serves_eagerly(self):
        scheduler = FifoScheduler()
        assert scheduler.next_event_time(2.0) == math.inf
        scheduler.enqueue(request(1, 0))
        assert scheduler.next_event_time(2.0) == 2.0


class TestSchedulerEquivalenceAcrossPolicies:
    """Whatever the policy, per-request outputs match sequential serves."""

    @pytest.mark.parametrize("scheduler", ["fifo", "fair", "deadline"])
    def test_outputs_policy_independent(self, scheduler):
        config = tiny_config()
        bodies = make_bodies(3, config)
        service = InferenceService(Server(bodies), max_batch=8, max_queue=32,
                                   scheduler=scheduler)
        sessions = []
        for s in range(3):
            head, tail, selector = make_client_parts(config, 3, 2, seed=s)
            sessions.append(service.open_session(head, tail, selector=selector))
        images = [rng.random((2, 3, 16, 16)).astype(np.float32)
                  for _ in sessions]
        request_ids = [sess.submit(im) for sess, im in zip(sessions, images)]
        service.run_until_idle()
        reference = Server(list(bodies))
        for session, batch, rid in zip(sessions, images, request_ids):
            pipeline = EnsembleCIPipeline(session.client, reference, Channel())
            np.testing.assert_allclose(session.result(rid),
                                       pipeline.infer(batch), atol=1e-5)


#: every registered policy name, aliases included (snapshot at import, so
#: schedulers registered by other tests never leak in).
POLICY_NAMES = sorted(SCHEDULERS)
FEATURE_SHAPES = [(4, 2, 2), (4, 3, 3), (2, 2, 2)]

scheduler_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, 3),
              st.integers(0, len(FEATURE_SHAPES) - 1), st.integers(1, 3),
              st.one_of(st.none(), st.floats(0.0, 1.0))),
    st.tuples(st.just("next_group"), st.floats(0.0, 0.5), st.integers(1, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("weight"), st.integers(0, 3),
              st.sampled_from([0.0, 0.5, 1.0, 2.0])),
), max_size=60)


class TestGroupContract:
    """The one contract every policy keeps, under random operation mixes:
    a group shares one coalesce key, is non-empty while work is pending,
    ``pending`` counts exactly the live requests, and every request
    leaves exactly once — through a group or a cancel."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(POLICY_NAMES), ops=scheduler_ops)
    def test_groups_are_homogeneous_and_requests_leave_once(self, name, ops):
        scheduler = make_scheduler(name)
        live: dict[int, UploadRequest] = {}
        request_ids = itertools.count()
        now = 0.0

        def leave(requests):
            for r in requests:
                assert r.request_id in live, "left twice or never queued"
                del live[r.request_id]

        for op in ops:
            kind = op[0]
            if kind == "enqueue":
                _, session, shape, batch, deadline = op
                rid = next(request_ids)
                features = np.zeros((batch, *FEATURE_SHAPES[shape]),
                                    dtype=np.float32)
                req = UploadRequest(session, rid, features, arrival_time=now,
                                    deadline=deadline)
                live[rid] = req
                scheduler.enqueue(req)
            elif kind == "next_group":
                now += op[1]  # the virtual clock only moves forward
                had_work = scheduler.pending > 0
                group = scheduler.next_group(op[2], now=now)
                assert bool(group) == had_work
                assert len({r.coalesce_key for r in group}) <= 1
                leave(group)
            elif kind == "cancel":
                cancelled = scheduler.cancel_session(op[1])
                assert all(r.session_id == op[1] for r in cancelled)
                leave(cancelled)
            else:
                scheduler.set_session_weight(op[1], op[2])
            assert scheduler.pending == len(live)

        # Drain: every remaining request still leaves through a group.
        while live:
            group = scheduler.next_group(4, now=now)
            assert group and len({r.coalesce_key for r in group}) == 1
            leave(group)
        assert scheduler.pending == 0
        assert scheduler.next_group(4, now=now) == []
