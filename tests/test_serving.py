"""Tests for the multi-tenant serving API (protocol, sessions, coalescing)."""

import numpy as np
import pytest

from repro.ci import Channel, EnsembleCIPipeline, HEADER_BYTES, Server, TransferStats
from repro.ci.pipeline import Client
from repro.core.selector import Selector
from repro.models.resnet import ResNet, ResNetConfig, ResNetHead, ResNetTail
from repro.serving import (
    BackpressureError,
    Codec,
    FeatureResponse,
    InferenceService,
    ProtocolError,
    ServingConfig,
    Session,
    UploadRequest,
)
from repro.serving.protocol import _DTYPE_CODES
from repro.utils.rng import new_rng

rng = np.random.default_rng(7)


def tiny_config(num_classes=4):
    return ResNetConfig(num_classes=num_classes, stem_channels=8, stage_channels=(8, 16),
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


class TestProtocol:
    def test_upload_round_trip(self):
        features = rng.random((3, 8, 8, 8)).astype(np.float32)
        request = UploadRequest(5, 17, features, record=True)
        parsed = UploadRequest.from_bytes(request.to_bytes())
        assert parsed.session_id == 5
        assert parsed.request_id == 17
        assert parsed.record is True
        np.testing.assert_array_equal(parsed.features, features)

    def test_response_round_trip(self):
        outputs = [rng.random((2, 16)).astype(np.float32) for _ in range(4)]
        response = FeatureResponse(9, 3, outputs)
        parsed = FeatureResponse.from_bytes(response.to_bytes())
        assert parsed.session_id == 9 and parsed.request_id == 3
        assert parsed.num_nets == 4
        for a, b in zip(parsed.outputs, outputs):
            np.testing.assert_array_equal(a, b)

    def test_wire_nbytes_is_exact_framed_length(self):
        """The channel accounts len(to_bytes()) — and that equals the
        historical per-array framing, keeping Table III calibration."""
        features = rng.random((2, 8, 8, 8)).astype(np.float32)
        request = UploadRequest(1, 0, features)
        assert request.wire_nbytes() == len(request.to_bytes())
        assert request.wire_nbytes() == features.nbytes + HEADER_BYTES
        outputs = [rng.random((2, 16)).astype(np.float32) for _ in range(3)]
        response = FeatureResponse(1, 0, outputs)
        assert response.wire_nbytes() == len(response.to_bytes())
        assert response.wire_nbytes() == sum(o.nbytes + HEADER_BYTES for o in outputs)

    def test_dtype_preserved(self):
        features = rng.integers(0, 255, size=(1, 4, 4), dtype=np.int64).astype(np.float64)
        parsed = UploadRequest.from_bytes(UploadRequest(1, 1, features).to_bytes())
        assert parsed.features.dtype == np.float64

    def test_parsed_array_is_writable_copy(self):
        features = rng.random((1, 4)).astype(np.float32)
        parsed = UploadRequest.from_bytes(UploadRequest(1, 1, features).to_bytes())
        parsed.features[0, 0] = 42.0  # must not raise (frombuffer is read-only)

    def test_bad_magic_rejected(self):
        blob = bytearray(UploadRequest(1, 1, np.zeros((1, 2), dtype=np.float32)).to_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(ProtocolError):
            UploadRequest.from_bytes(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = UploadRequest(1, 1, np.zeros((2, 3), dtype=np.float32)).to_bytes()
        with pytest.raises(ProtocolError):
            UploadRequest.from_bytes(blob[:-4])

    def test_kind_mismatch_rejected(self):
        blob = UploadRequest(1, 1, np.zeros((1, 2), dtype=np.float32)).to_bytes()
        with pytest.raises(ProtocolError):
            FeatureResponse.from_bytes(blob)

    def test_channel_accounts_wire_messages(self):
        channel = Channel()
        features = rng.random((2, 8, 8, 8)).astype(np.float32)
        request = UploadRequest(1, 0, features)
        channel.send_up(request)
        assert channel.stats.uplink_messages == 1
        assert channel.stats.uplink_bytes == len(request.to_bytes())

    @pytest.mark.parametrize("dtype", sorted(_DTYPE_CODES, key=str),
                             ids=lambda d: str(d))
    def test_round_trip_over_every_wire_dtype(self, dtype):
        """Property-style: every registered dtype survives the frame."""
        if dtype == np.dtype(np.bool_):
            features = rng.random((2, 3, 5)) > 0.5
        elif dtype.kind in "iu":
            features = rng.integers(0, 100, size=(2, 3, 5)).astype(dtype)
        else:
            features = rng.random((2, 3, 5)).astype(dtype)
        parsed = UploadRequest.from_bytes(UploadRequest(4, 9, features).to_bytes())
        assert parsed.features.dtype == dtype
        np.testing.assert_array_equal(parsed.features, features)
        response = FeatureResponse(4, 9, [features, features])
        reparsed = FeatureResponse.from_bytes(response.to_bytes())
        for arr in reparsed.outputs:
            assert arr.dtype == dtype
            np.testing.assert_array_equal(arr, features)

    def _valid_blob(self) -> bytearray:
        return bytearray(
            UploadRequest(1, 1, np.zeros((2, 3), dtype=np.float32)).to_bytes())

    def test_truncated_header_rejected(self):
        blob = self._valid_blob()
        with pytest.raises(ProtocolError, match="truncated frame header"):
            UploadRequest.from_bytes(bytes(blob[:32]))

    def test_version_mismatch_rejected(self):
        blob = self._valid_blob()
        blob[4:6] = (1).to_bytes(2, "little")  # wire version 1 frame
        with pytest.raises(ProtocolError, match="protocol version"):
            UploadRequest.from_bytes(bytes(blob))

    def test_unknown_dtype_code_rejected(self):
        blob = self._valid_blob()
        blob[30:32] = (250).to_bytes(2, "little")
        with pytest.raises(ProtocolError, match="unknown dtype code"):
            UploadRequest.from_bytes(bytes(blob))

    def test_unknown_codec_code_rejected(self):
        blob = self._valid_blob()
        blob[34:36] = (77).to_bytes(2, "little")
        with pytest.raises(ProtocolError, match="unknown codec code"):
            UploadRequest.from_bytes(bytes(blob))

    def test_bad_ndim_rejected(self):
        blob = self._valid_blob()
        blob[32:34] = (9).to_bytes(2, "little")
        with pytest.raises(ProtocolError, match="bad ndim"):
            UploadRequest.from_bytes(bytes(blob))

    def test_empty_message_rejected(self):
        with pytest.raises(ProtocolError, match="empty message"):
            UploadRequest.from_bytes(b"")


class TestCodec:
    def test_parse_specs(self):
        assert Codec.parse("fp16") is Codec.FP16
        assert Codec.parse("FP32") is Codec.FP32
        assert Codec.parse(None) is Codec.FP32
        assert Codec.parse(Codec.FP16) is Codec.FP16
        assert Codec.parse(1) is Codec.FP16
        with pytest.raises(ValueError, match="unknown codec"):
            Codec.parse("fp8")

    def test_fp16_narrows_response_payload_exactly(self):
        outputs = [rng.random((2, 16)).astype(np.float32) for _ in range(3)]
        fp32 = FeatureResponse.encode(1, 0, outputs, codec="fp32")
        fp16 = FeatureResponse.encode(1, 0, outputs, codec="fp16")
        assert fp16.codec is Codec.FP16
        assert all(arr.dtype == np.float16 for arr in fp16.outputs)
        # exact byte accounting: payload halves, per-array headers stay
        assert fp16.wire_nbytes() == len(fp16.to_bytes())
        assert fp16.wire_nbytes() == sum(
            o.nbytes // 2 + HEADER_BYTES for o in outputs)
        assert fp32.wire_nbytes() == sum(o.nbytes + HEADER_BYTES for o in outputs)

    def test_fp16_round_trip_and_decode_tolerance(self):
        outputs = [rng.random((2, 16)).astype(np.float32) for _ in range(3)]
        parsed = FeatureResponse.from_bytes(
            FeatureResponse.encode(1, 0, outputs, codec="fp16").to_bytes())
        assert parsed.codec is Codec.FP16
        decoded = parsed.decoded()
        for got, want in zip(decoded, outputs):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, atol=1e-3)

    def test_fp32_codec_is_identity(self):
        outputs = [rng.random((2, 16)).astype(np.float32)]
        response = FeatureResponse.encode(1, 0, outputs)
        assert response.outputs[0] is outputs[0] or np.shares_memory(
            response.outputs[0], outputs[0])
        np.testing.assert_array_equal(response.decoded()[0], outputs[0])


class TestTransferStats:
    def test_add_combines_counters(self):
        a = TransferStats(1, 100, 2, 200)
        b = TransferStats(3, 50, 4, 25)
        total = a + b
        assert total == TransferStats(4, 150, 6, 225)
        # operands untouched
        assert a == TransferStats(1, 100, 2, 200)

    def test_merge_in_place(self):
        a = TransferStats(1, 10, 1, 10)
        result = a.merge(TransferStats(1, 5, 0, 0))
        assert result is a
        assert a == TransferStats(2, 15, 1, 10)

    def test_sum_builtin(self):
        parts = [TransferStats(1, 10, 1, 20) for _ in range(3)]
        total = sum(parts)
        assert total.uplink_bytes == 30 and total.downlink_bytes == 60
        assert total is not parts[0]

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            TransferStats() + 5


class TestSessions:
    def make_service(self, num_nets=3, **kwargs):
        kwargs.setdefault("max_batch", 4)
        return InferenceService(Server(make_bodies(num_nets)), **kwargs)

    def test_open_session_builds_client(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        session = service.open_session(head, tail, selector=selector)
        assert isinstance(session, Session)
        assert session.selector is selector
        assert session.session_id in {s.session_id for s in service.sessions}

    def test_per_session_noise_seed_is_deterministic(self):
        service = self.make_service()
        config = tiny_config()
        shape = config.intermediate_shape(16)
        head, tail, selector = make_client_parts(config, 3, 2)
        same_a = service.open_session(head, tail, selector=selector,
                                      noise_seed=5, noise_shape=shape)
        same_b = service.open_session(head, tail, selector=selector,
                                      noise_seed=5, noise_shape=shape)
        other = service.open_session(head, tail, selector=selector,
                                     noise_seed=6, noise_shape=shape)
        np.testing.assert_array_equal(same_a.client.noise.noise,
                                      same_b.client.noise.noise)
        assert np.abs(other.client.noise.noise - same_a.client.noise.noise).max() > 0

    def test_noise_seed_requires_shape(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        with pytest.raises(ValueError):
            service.open_session(head, tail, selector=selector, noise_seed=1)

    def test_unknown_session_rejected(self):
        service = self.make_service()
        with pytest.raises(KeyError):
            service.submit(UploadRequest(99, 0, np.zeros((1, 8, 8, 8), np.float32)))

    def test_result_before_tick_raises(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        session = service.open_session(head, tail, selector=selector)
        rid = session.submit(rng.random((1, 3, 16, 16)).astype(np.float32))
        assert session.outstanding == 1
        with pytest.raises(KeyError, match="no\\s+result yet"):
            session.result(rid)
        service.run_until_idle()
        assert session.has_result(rid)
        assert session.result(rid).shape == (1, 4)
        assert session.outstanding == 0

    def test_take_response_and_discard_results(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        session = service.open_session(head, tail, selector=selector)
        images = rng.random((1, 3, 16, 16)).astype(np.float32)
        first = session.submit(images)
        second = session.submit(images)
        service.run_until_idle()
        response = session.take_response(first)
        assert isinstance(response, FeatureResponse)
        assert response.num_nets == 3
        assert session.take_response(first) is None  # popped
        assert session.discard_results() == 1  # the second response
        assert not session.has_result(second)

    def test_result_consumed_twice_says_so(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        session = service.open_session(head, tail, selector=selector)
        rid = session.submit(rng.random((1, 3, 16, 16)).astype(np.float32))
        service.run_until_idle()
        session.result(rid)
        with pytest.raises(KeyError, match="already consumed"):
            session.result(rid)

    def test_closed_session_traffic_retained_in_totals(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        sessions = [service.open_session(head, tail, selector=selector)
                    for _ in range(2)]
        for session in sessions:
            session.submit(rng.random((1, 3, 16, 16)).astype(np.float32))
        service.run_until_idle()
        before = service.transfer_totals()
        service.close_session(sessions[0])
        assert service.transfer_totals() == before  # churn must not shrink totals

    def test_closed_session_requests_dropped(self):
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        session = service.open_session(head, tail, selector=selector)
        session.submit(rng.random((1, 3, 16, 16)).astype(np.float32))
        service.close_session(session)
        assert service.pending == 0
        assert service.run_until_idle() == 0

    def test_close_session_counts_cancelled_requests(self):
        """Shed queued work is observable: uplink bytes were already
        accounted, so the drop must show up in stats.cancelled_requests."""
        service = self.make_service()
        head, tail, selector = make_client_parts(tiny_config(), 3, 2)
        victim = service.open_session(head, tail, selector=selector)
        survivor = service.open_session(head, tail, selector=selector)
        images = rng.random((1, 3, 16, 16)).astype(np.float32)
        victim.submit(images)
        victim.submit(images)
        survivor.submit(images)
        assert service.stats.cancelled_requests == 0
        service.close_session(victim)
        assert service.stats.cancelled_requests == 2
        assert service.pending == 1  # the survivor's request is untouched
        service.run_until_idle()
        assert service.stats.served_requests == 1
        service.close_session(survivor)  # nothing queued: no new cancels
        assert service.stats.cancelled_requests == 2

    def test_fp16_session_halves_downlink_and_keeps_outputs_close(self):
        """Codec negotiation at open_session: exact narrowed byte
        accounting, outputs within fp16 tolerance of the fp32 session."""
        config = tiny_config()
        bodies = make_bodies(3, config)
        service = InferenceService(Server(bodies), max_batch=4)
        head, tail, selector = make_client_parts(config, 3, 2)
        fp32 = service.open_session(head, tail, selector=selector)
        fp16 = service.open_session(head, tail, selector=selector, codec="fp16")
        assert fp16.codec is Codec.FP16
        images = rng.random((2, 3, 16, 16)).astype(np.float32)
        rid32 = fp32.submit(images)
        rid16 = fp16.submit(images)
        service.run_until_idle()
        logits32 = fp32.result(rid32)
        logits16 = fp16.result(rid16)
        np.testing.assert_allclose(logits16, logits32, atol=5e-2)
        assert fp32.stats.uplink_bytes == fp16.stats.uplink_bytes
        payload32 = fp32.stats.downlink_bytes - 3 * HEADER_BYTES
        assert fp16.stats.downlink_bytes == payload32 // 2 + 3 * HEADER_BYTES

    def test_config_codec_sets_session_default(self):
        service = InferenceService(Server(make_bodies(2)), codec="fp16")
        head, tail, selector = make_client_parts(tiny_config(), 2, 1)
        default = service.open_session(head, tail, selector=selector)
        override = service.open_session(head, tail, selector=selector,
                                        codec="fp32")
        assert default.codec is Codec.FP16
        assert override.codec is Codec.FP32


class TestCoalescing:
    """The acceptance criterion: coalesced == sequential to <= 1e-5."""

    def make_deployment(self, num_nets=4, num_active=2, num_sessions=3):
        config = tiny_config()
        bodies = make_bodies(num_nets, config)
        service = InferenceService(Server(bodies), max_batch=16, max_queue=32)
        sessions = []
        for s in range(num_sessions):
            head, tail, selector = make_client_parts(config, num_nets, num_active,
                                                     seed=s)
            sessions.append(service.open_session(
                head, tail, selector=selector, noise_seed=700 + s,
                noise_shape=config.intermediate_shape(16)))
        return config, bodies, service, sessions

    def sequential_reference(self, bodies, sessions, images, record=False):
        """K independent single-request EnsembleCIPipeline.infer calls."""
        server = Server(list(bodies))
        logits = []
        for session, batch in zip(sessions, images):
            pipeline = EnsembleCIPipeline(session.client, server, Channel())
            logits.append(pipeline.infer(batch, record=record))
        return logits, server

    def test_coalesced_equals_sequential(self):
        config, bodies, service, sessions = self.make_deployment()
        images = [rng.random((2, 3, 16, 16)).astype(np.float32)
                  for _ in sessions]
        request_ids = [s.submit(im) for s, im in zip(sessions, images)]
        ticks = service.run_until_idle()
        assert ticks == 1  # all three requests served by ONE stacked pass
        coalesced = [s.result(r) for s, r in zip(sessions, request_ids)]
        expected, _ = self.sequential_reference(bodies, sessions, images)
        for got, want in zip(coalesced, expected):
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_mixed_batch_sizes(self):
        config, bodies, service, sessions = self.make_deployment(num_sessions=3)
        images = [rng.random((b, 3, 16, 16)).astype(np.float32)
                  for b in (1, 3, 2)]
        request_ids = [s.submit(im) for s, im in zip(sessions, images)]
        assert service.run_until_idle() == 1
        coalesced = [s.result(r) for s, r in zip(sessions, request_ids)]
        assert [c.shape[0] for c in coalesced] == [1, 3, 2]
        expected, _ = self.sequential_reference(bodies, sessions, images)
        for got, want in zip(coalesced, expected):
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_record_mode_captures_per_request_features(self):
        config, bodies, service, sessions = self.make_deployment(num_sessions=3)
        images = [rng.random((b, 3, 16, 16)).astype(np.float32)
                  for b in (2, 1, 2)]
        request_ids = [s.submit(im, record=True)
                       for s, im in zip(sessions, images)]
        service.run_until_idle()
        coalesced = [s.result(r) for s, r in zip(sessions, request_ids)]
        expected, seq_server = self.sequential_reference(bodies, sessions, images,
                                                         record=True)
        for got, want in zip(coalesced, expected):
            np.testing.assert_allclose(got, want, atol=1e-5)
        # The semi-honest server retains the same per-request feature maps in
        # the same order as K sequential record=True serves.
        assert len(service.server.observed_features) == len(seq_server.observed_features)
        for got, want in zip(service.server.observed_features,
                             seq_server.observed_features):
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_byte_accounting_identical_to_sequential(self):
        config, bodies, service, sessions = self.make_deployment(num_sessions=3)
        images = [rng.random((b, 3, 16, 16)).astype(np.float32)
                  for b in (1, 2, 3)]
        for session, batch in zip(sessions, images):
            session.submit(batch)
        service.run_until_idle()
        server = Server(list(bodies))
        for session, batch in zip(sessions, images):
            reference = EnsembleCIPipeline(session.client, server, Channel())
            reference.infer(batch)
            assert session.stats == reference.channel.stats

    def test_max_batch_splits_ticks(self):
        config, bodies, service, sessions = self.make_deployment(num_sessions=3)
        small = InferenceService(Server(bodies), max_batch=2, max_queue=8)
        tenants = [small.adopt_session(s.client) for s in sessions]
        for tenant in tenants:
            tenant.submit(rng.random((1, 3, 16, 16)).astype(np.float32))
        assert small.run_until_idle() == 2  # 2 + 1 requests
        assert small.stats.peak_coalesced == 2
        assert small.stats.served_requests == 3

    def test_shape_change_breaks_group(self):
        """FIFO groups stop at a feature-shape boundary (never reorder)."""
        config = tiny_config()
        bodies = make_bodies(3, config)
        service = InferenceService(Server(bodies), max_batch=8)
        client = Client(ResNetHead(config, new_rng(1)).eval(),
                        ResNetTail(config, new_rng(2), in_multiplier=2).eval(),
                        selector=Selector(3, (0, 1)))
        session = service.adopt_session(client)
        # Convolutional bodies accept any spatial size; 8x8 and 4x4 uploads
        # cannot share one concatenated batch.
        session.submit_features(rng.random((1, 8, 8, 8)).astype(np.float32))
        session.submit_features(rng.random((1, 8, 4, 4)).astype(np.float32))
        session.submit_features(rng.random((1, 8, 8, 8)).astype(np.float32))
        assert service.run_until_idle() == 3
        assert service.stats.peak_coalesced == 1

    def test_aggregate_transfer_totals(self):
        config, bodies, service, sessions = self.make_deployment(num_sessions=3)
        for session in sessions:
            session.submit(rng.random((1, 3, 16, 16)).astype(np.float32))
        service.run_until_idle()
        totals = service.transfer_totals()
        assert totals == sum(s.stats for s in sessions)
        assert totals.uplink_messages == 3
        assert totals.downlink_messages == 3


class TestBackpressure:
    def test_queue_bound_enforced(self):
        service = InferenceService(Server(make_bodies(2)), max_batch=2, max_queue=2)
        head, tail, selector = make_client_parts(tiny_config(), 2, 1)
        session = service.open_session(head, tail, selector=selector)
        features = rng.random((1, 8, 8, 8)).astype(np.float32)
        session.submit_features(features)
        session.submit_features(features)
        before = session.stats.uplink_bytes
        with pytest.raises(BackpressureError):
            session.submit_features(features)
        # the rejected request transmitted nothing and is not outstanding
        assert session.stats.uplink_bytes == before
        assert session.outstanding == 2
        assert service.stats.rejected_requests == 1
        service.run_until_idle()
        session.submit_features(features)  # space again after draining
        assert service.pending == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServingConfig(scheduler="lifo")
        with pytest.raises(ValueError):
            ServingConfig(codec="fp8")


class TestPipelineAdapters:
    def test_pipeline_exposes_session(self):
        config = tiny_config()
        bodies = make_bodies(3, config)
        head, tail, selector = make_client_parts(config, 3, 2)
        client = Client(head, tail, selector=selector)
        pipeline = EnsembleCIPipeline(client, Server(bodies), Channel())
        assert isinstance(pipeline.session, Session)
        assert pipeline.session.channel is pipeline.channel

    def test_repeated_infer_accumulates_stats(self):
        config = tiny_config()
        bodies = make_bodies(3, config)
        head, tail, selector = make_client_parts(config, 3, 2)
        client = Client(head, tail, selector=selector)
        pipeline = EnsembleCIPipeline(client, Server(bodies), Channel())
        images = rng.random((2, 3, 16, 16)).astype(np.float32)
        pipeline.infer(images)
        pipeline.infer(images)
        assert pipeline.channel.stats.uplink_messages == 2
        assert pipeline.channel.stats.downlink_messages == 2
