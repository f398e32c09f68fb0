"""Tests for session checkpointing: round-trip, restore, failover merge."""

import numpy as np
import pytest

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.core.selector import Selector
from repro.models.resnet import ResNet, ResNetConfig, ResNetHead, ResNetTail
from repro.privacy import PrivacyBudget
from repro.serving import (
    CheckpointError,
    CheckpointStore,
    Codec,
    InferenceService,
    PrivacyExhaustedError,
    RequestState,
    SessionState,
)
from repro.utils.rng import new_rng

rng = np.random.default_rng(53)


def tiny_config():
    return ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                        blocks_per_stage=(1, 1), use_maxpool=True)


def make_bodies(num_nets=3, config=None):
    config = config or tiny_config()
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_client_parts(config, num_nets, num_active, seed=0):
    head = ResNetHead(config, new_rng(50 + seed))
    tail = ResNetTail(config, new_rng(80 + seed), in_multiplier=num_active)
    head.eval()
    tail.eval()
    selector = Selector.random(num_nets, num_active, rng=new_rng(110 + seed))
    return head, tail, selector


def full_state():
    return SessionState(
        session_id=7, epoch=2, codec=Codec.INT8, weight=2.5,
        next_request_id=11,
        selector=(5, (0, 2, 4)),
        noise=(1234, (8, 16, 16), 0.07),
        limiter=(20.0, 8.0, 3.25),
        privacy=(2.0, 4.0, 512, 1.25, 17, 3),
        states={3: RequestState.COMPLETED, 9: RequestState.QUEUED,
                10: RequestState.THROTTLED})


class TestWireRoundTrip:
    def test_full_state_round_trips(self):
        state = full_state()
        assert SessionState.from_bytes(state.to_bytes()) == state

    def test_minimal_state_round_trips(self):
        state = SessionState(session_id=1)
        assert SessionState.from_bytes(state.to_bytes()) == state

    def test_encoding_is_deterministic(self):
        assert full_state().to_bytes() == full_state().to_bytes()

    def test_state_order_does_not_change_bytes(self):
        a = full_state()
        b = full_state()
        b.states = dict(reversed(list(b.states.items())))
        assert a.to_bytes() == b.to_bytes()

    @pytest.mark.parametrize("codec", [Codec.FP32, Codec.FP16, Codec.INT8])
    def test_every_codec_survives(self, codec):
        state = SessionState(session_id=3, codec=codec)
        assert SessionState.from_bytes(state.to_bytes()).codec is codec

    def test_every_request_state_survives(self):
        states = {i: state for i, state in enumerate(RequestState)}
        blob = SessionState(session_id=2, next_request_id=len(states),
                            states=states).to_bytes()
        assert SessionState.from_bytes(blob).states == states


class TestCapture:
    def make_session(self, **kwargs):
        service = InferenceService(Server(make_bodies()), max_batch=4)
        config = tiny_config()
        head, tail, selector = make_client_parts(config, 3, 2)
        session = service.open_session(head, tail, selector=selector,
                                       noise_seed=21, noise_shape=(8, 16, 16),
                                       **kwargs)
        return service, session

    def test_capture_records_provenance(self):
        service, session = self.make_session(codec=Codec.FP16, weight=3.0,
                                             rate_limit=(50.0, 10))
        state = SessionState.capture(session)
        assert state.session_id == session.session_id
        assert state.codec is Codec.FP16
        assert state.weight == 3.0
        assert state.selector == (3, tuple(session.selector.indices))
        assert state.noise == (21, (8, 16, 16), 0.1)
        assert state.limiter[0] == 50.0 and state.limiter[1] == 10.0

    def test_capture_tracks_request_lifecycle(self):
        service, session = self.make_session()
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        request_id = session.submit(x)
        queued = SessionState.capture(session)
        assert queued.states[request_id] is RequestState.QUEUED
        service.run_until_idle()
        served = SessionState.capture(session)
        assert served.states[request_id] is RequestState.COMPLETED
        assert served.next_request_id == request_id + 1

    def test_capture_without_limiter_or_noise(self):
        service = InferenceService(Server(make_bodies()))
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        state = SessionState.capture(session)
        assert state.noise is None
        assert state.limiter is None
        assert state.selector is None


class TestRestore:
    def roundtrip_restore(self):
        bodies = make_bodies()
        config = tiny_config()
        head, tail, selector = make_client_parts(config, 3, 2)
        original_service = InferenceService(Server(bodies), max_batch=4)
        original = original_service.open_session(
            head, tail, selector=selector, noise_seed=5,
            noise_shape=(8, 16, 16), codec=Codec.FP16, rate_limit=(40.0, 8))
        blob = SessionState.capture(original).to_bytes()
        state = SessionState.from_bytes(blob)
        # Replacement replica: same bodies (deployment artifact), fresh
        # service, head/tail rebuilt from the same shipped weights.
        replacement_service = InferenceService(Server(bodies), max_batch=4)
        head2, tail2, _ = make_client_parts(config, 3, 2)
        restored = state.restore(replacement_service, head2, tail2)
        return original_service, original, replacement_service, restored

    def test_restore_is_bit_exact(self):
        (original_service, original,
         replacement_service, restored) = self.roundtrip_restore()
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        # Same upload through both incarnations: identical noised
        # encoding, identical downlink bytes, identical logits.
        np.testing.assert_array_equal(original.encode(x), restored.encode(x))
        rid_a = original.submit(x)
        rid_b = restored.submit(x)
        original_service.run_until_idle()
        replacement_service.run_until_idle()
        resp_a = original.take_response(rid_a)
        resp_b = restored.take_response(rid_b)
        assert resp_a.to_bytes()[16:] == resp_b.to_bytes()[16:]  # past ids

    def test_restore_preserves_identity_and_bumps_epoch(self):
        _, original, _, restored = self.roundtrip_restore()
        assert restored.session_id == original.session_id
        assert restored.epoch == original.epoch + 1
        assert restored.codec is original.codec
        assert tuple(restored.selector.indices) == tuple(
            original.selector.indices)
        assert restored.noise_seed == original.noise_seed

    def test_restore_continues_the_request_id_sequence(self):
        _, original, _, restored = self.roundtrip_restore()
        assert restored.reserve_request_id() == original.reserve_request_id()

    def test_restore_replays_lifecycle_states(self):
        service = InferenceService(Server(make_bodies()), max_batch=4)
        config = tiny_config()
        head, tail, selector = make_client_parts(config, 3, 2)
        session = service.open_session(head, tail, selector=selector)
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        queued_id = session.submit(x)
        state = SessionState.capture(session)
        replacement = InferenceService(Server(make_bodies()), max_batch=4)
        head2, tail2, _ = make_client_parts(config, 3, 2)
        restored = state.restore(replacement, head2, tail2)
        # The in-flight request stays QUEUED on the replacement -- the
        # retry path recovers it; it is never invented as COMPLETED.
        assert restored.request_state(queued_id) is RequestState.QUEUED
        assert queued_id in restored._pending

    def test_restore_rejects_wrong_ensemble_width(self):
        config = tiny_config()
        head, tail, selector = make_client_parts(config, 3, 2)
        service = InferenceService(Server(make_bodies(3)), max_batch=4)
        session = service.open_session(head, tail, selector=selector)
        state = SessionState.capture(session)
        narrow = InferenceService(Server(make_bodies(2)), max_batch=4)
        with pytest.raises(CheckpointError):
            state.restore(narrow, head, tail)

    def test_restore_caps_limiter_tokens(self):
        service = InferenceService(Server(make_bodies()), max_batch=4)
        config = tiny_config()
        head, tail, selector = make_client_parts(config, 3, 2)
        session = service.open_session(head, tail, selector=selector,
                                       rate_limit=(10.0, 5))
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        session.submit(x)  # burn one token
        state = SessionState.capture(session)
        replacement = InferenceService(Server(make_bodies()), max_batch=4)
        restored = state.restore(replacement, head, tail)
        # No token minting across failover: restored level <= captured.
        assert restored.limiter.available(replacement.now) <= state.limiter[2]


class TestApplyMerge:
    def make_live(self):
        service = InferenceService(Server(make_bodies()))
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        return service, session

    def test_apply_requires_matching_session(self):
        _, session = self.make_live()
        state = SessionState(session_id=session.session_id + 1)
        with pytest.raises(CheckpointError):
            state.apply(session)

    def test_apply_bumps_epoch_and_reseeds_jitter(self):
        _, session = self.make_live()
        before = list(session._retry_rng.random(4))
        state = SessionState(session_id=session.session_id, epoch=0)
        state.apply(session)
        assert session.epoch == 1
        fresh = np.random.default_rng([session.session_id, 1])
        assert list(session._retry_rng.random(4)) == list(fresh.random(4))
        assert before != list(
            np.random.default_rng([session.session_id, 1]).random(4))[:4]

    def test_apply_ratchets_the_request_id_floor(self):
        _, session = self.make_live()
        session._next_request_id = 3
        SessionState(session_id=session.session_id,
                     next_request_id=10).apply(session)
        assert session._next_request_id == 10
        SessionState(session_id=session.session_id,
                     next_request_id=4).apply(session)
        assert session._next_request_id == 10  # floors only ratchet

    def test_apply_never_overwrites_live_states(self):
        _, session = self.make_live()
        session._states[4] = RequestState.COMPLETED
        state = SessionState(session_id=session.session_id,
                             next_request_id=6,
                             states={4: RequestState.QUEUED,
                                     5: RequestState.FAILED})
        state.apply(session)
        assert session._states[4] is RequestState.COMPLETED  # live truth wins
        assert session._states[5] is RequestState.FAILED     # snapshot fills


class TestPrivacyCheckpoint:
    FEATURES = rng.random((1, 4, 4, 4)).astype(np.float32)

    def make_metered(self, q_budget=4, rotation="per_query"):
        service = InferenceService(Server([nn.Identity() for _ in range(3)]),
                                   max_batch=1)
        client = Client(nn.Identity(), nn.Identity(),
                        selector=Selector.random(3, 2, rng=new_rng(7)))
        session = service.adopt_session(client,
                                        privacy=(2.0, 1000.0, q_budget),
                                        rotation=rotation)
        return service, session

    def serve_one(self, service, session):
        rid = session.submit_features(self.FEATURES)
        service.run_until_idle()
        session.take_response(rid)

    def test_capture_includes_accounting_and_rotation(self):
        service, session = self.make_metered()
        for _ in range(2):
            self.serve_one(service, session)
        state = SessionState.capture(session)
        alpha, eps, q_budget, spent, queries, rotation_index = state.privacy
        assert (alpha, eps, q_budget) == (2.0, 1000.0, 4)
        assert spent == session.privacy.spent
        assert queries == 2
        assert rotation_index == session.rotation.rotation_index == 1

    def test_unmetered_sessions_checkpoint_without_privacy(self):
        service = InferenceService(Server([nn.Identity()]))
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        assert SessionState.capture(session).privacy is None

    def test_restore_is_bit_exact_and_bumps_epoch(self):
        service, session = self.make_metered()
        for _ in range(3):
            self.serve_one(service, session)
        blob = SessionState.capture(session).to_bytes()
        replica = InferenceService(Server([nn.Identity() for _ in range(3)]),
                                   max_batch=1)
        restored = SessionState.from_bytes(blob).restore(
            replica, nn.Identity(), nn.Identity(), rotation="per_query")
        assert restored.privacy.spent == session.privacy.spent
        assert restored.privacy.queries_charged == 3
        assert restored.privacy.policy == session.privacy.policy
        assert restored.rotation.rotation_index \
            == session.rotation.rotation_index
        assert restored.epoch == session.epoch + 1

    def test_restore_accepts_deployment_ladder_knobs(self):
        service, session = self.make_metered()
        self.serve_one(service, session)
        state = SessionState.capture(session)
        replica = InferenceService(Server([nn.Identity() for _ in range(3)]),
                                   max_batch=1)
        knobs = PrivacyBudget(base_sigma=0.3, noise_boost=2.0)
        restored = state.restore(replica, nn.Identity(), nn.Identity(),
                                 privacy=knobs)
        # config comes from the supplied budget, accounting from the blob
        assert restored.privacy.base_sigma == 0.3
        assert restored.privacy.noise_boost == 2.0
        assert restored.privacy.policy == session.privacy.policy
        assert restored.privacy.queries_charged == 1

    def test_restored_exhausted_session_still_refuses(self):
        service, session = self.make_metered(q_budget=2)
        for _ in range(2):
            self.serve_one(service, session)
        assert session.privacy.exhausted
        blob = SessionState.capture(session).to_bytes()
        replica = InferenceService(Server([nn.Identity() for _ in range(3)]),
                                   max_batch=1)
        restored = SessionState.from_bytes(blob).restore(
            replica, nn.Identity(), nn.Identity())
        with pytest.raises(PrivacyExhaustedError):
            restored.submit_features(self.FEATURES)

    def test_apply_ratchets_and_never_mints_budget(self):
        service, session = self.make_metered()
        for _ in range(3):
            self.serve_one(service, session)
        spent = session.privacy.spent
        rotation_index = session.rotation.rotation_index
        # A stale snapshot (taken earlier, lower counters) must not roll
        # the live accounting back.
        stale = SessionState(session_id=session.session_id, epoch=0,
                             privacy=(2.0, 1000.0, 4, spent / 2, 1, 0))
        stale.apply(session)
        assert session.privacy.spent == spent
        assert session.privacy.queries_charged == 3
        assert session.rotation.rotation_index == rotation_index
        # A further-ahead snapshot ratchets the live side forward.
        ahead = SessionState(session_id=session.session_id, epoch=0,
                             privacy=(2.0, 1000.0, 4, spent * 2, 4,
                                      rotation_index + 5))
        ahead.apply(session)
        assert session.privacy.spent == spent * 2
        assert session.privacy.queries_charged == 4
        assert session.privacy.exhausted
        assert session.rotation.rotation_index == rotation_index + 5


class TestCheckpointStore:
    def make_session(self):
        service = InferenceService(Server(make_bodies()))
        return service, service.adopt_session(
            Client(nn.Identity(), nn.Identity()))

    def test_snapshot_stores_and_loads(self):
        _, session = self.make_session()
        store = CheckpointStore(interval_s=0.05)
        blob = store.snapshot(session)
        assert session.session_id in store
        assert store.blob(session.session_id) == blob
        assert store.load(session.session_id).session_id == session.session_id
        assert store.snapshots == 1
        assert store.bytes_written == len(blob)

    def test_maybe_snapshot_honours_the_interval(self):
        _, session = self.make_session()
        store = CheckpointStore(interval_s=0.05)
        assert store.maybe_snapshot(session, 0.0)       # first: always
        assert not store.maybe_snapshot(session, 0.01)  # too soon
        assert not store.maybe_snapshot(session, 0.049)
        assert store.maybe_snapshot(session, 0.051)
        assert store.snapshots == 2

    def test_drop_forgets_the_session(self):
        _, session = self.make_session()
        store = CheckpointStore()
        store.snapshot(session)
        store.drop(session.session_id)
        assert session.session_id not in store
        with pytest.raises(KeyError):
            store.load(session.session_id)

    def test_only_the_newest_blob_is_kept(self):
        _, session = self.make_session()
        store = CheckpointStore()
        store.snapshot(session)
        session.reserve_request_id()
        second = store.snapshot(session)
        assert store.session_ids == (session.session_id,)
        assert store.blob(session.session_id) == second

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval_s=-1.0)
