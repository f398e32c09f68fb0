"""Tests for the per-tenant QoS layer (PR 5): weighted fair scheduling,
token-bucket rate limits and the int8 affine downlink codec."""

import math

import numpy as np
import pytest

from repro.ci import Server
from repro.ci.channel import HEADER_BYTES
from repro.ci.pipeline import Client
from repro.metrics.ssim import ssim
from repro.serving import (
    Codec,
    FairShareScheduler,
    FeatureResponse,
    InferenceService,
    ProtocolError,
    RateLimit,
    RateLimitedError,
    RateLimiter,
    UploadRequest,
    WeightedFairScheduler,
    bursty_trace,
    make_scheduler,
    simulate,
)
from repro.serving.simulate import TickCost
from repro import nn

rng = np.random.default_rng(23)


def request(session_id, request_id, batch=1, shape=(4, 2, 2)):
    features = rng.random((batch, *shape)).astype(np.float32)
    return UploadRequest(session_id, request_id, features)


def identity_service(num_bodies=2, **kwargs):
    bodies = [nn.Identity() for _ in range(num_bodies)]
    return InferenceService(Server(bodies), **kwargs)


class TestWeightedFairScheduler:
    def test_registry_names(self):
        assert isinstance(make_scheduler("weighted"), WeightedFairScheduler)

    def test_two_to_one_shares_while_contended(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 2.0)
        scheduler.set_session_weight(2, 1.0)
        for i in range(24):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(2, i))
        served = {1: 0, 2: 0}
        while served[1] < 24:  # the heavy tenant's backlog drains first
            for r in scheduler.next_group(max_batch=3):
                served[r.session_id] += r.batch_size
        assert served[1] == 2 * served[2]

    @pytest.mark.parametrize("max_batch", [1, 2, 3, 8])
    def test_shares_hold_at_any_group_size(self, max_batch):
        """Regression: the continuous DRR scan must deliver weighted
        shares even when a tick serves fewer requests than a full
        deficit cycle (max_batch=1 previously collapsed to 1:1)."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 2.0)
        scheduler.set_session_weight(2, 1.0)
        for i in range(60):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(2, i))
        sequence = []
        while scheduler._queues[1]:  # heavy (2/3 share) drains first
            sequence += [r.session_id
                         for r in scheduler.next_group(max_batch=max_batch)]
        # Measure the contended window only: cut at the heavy tenant's
        # last pop so the final group's post-drain fills don't skew it.
        contended = sequence[:len(sequence) - sequence[::-1].index(1)]
        ratio = contended.count(1) / contended.count(2)
        assert abs(ratio - 2.0) / 2.0 <= 0.15, (max_batch, contended)

    def test_deficits_stay_bounded(self):
        """A backlogged heavy tenant's deficit must not grow without
        bound while it waits for group slots."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 2.0)
        scheduler.set_session_weight(2, 1.0)
        for i in range(200):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(2, i))
        for _ in range(100):
            scheduler.next_group(max_batch=2)
        bound = 2.0 + 1  # one weight-2 accrual + one request
        assert all(abs(d) <= bound for d in scheduler._deficits.values()), (
            scheduler._deficits)

    def test_shares_follow_multi_sample_batches(self):
        """Deficit round-robin is over *samples*, not request counts."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 3.0)
        scheduler.set_session_weight(2, 1.0)
        for i in range(30):
            scheduler.enqueue(request(1, i, batch=2))
            scheduler.enqueue(request(2, i, batch=2))
        served = {1: 0, 2: 0}
        while scheduler._queues[1] and scheduler._queues[2]:
            for r in scheduler.next_group(max_batch=8):
                served[r.session_id] += r.batch_size
        ratio = served[1] / served[2]
        assert abs(ratio - 3.0) / 3.0 <= 0.15

    def test_reduces_to_fair_share_at_unit_weights(self):
        """All weights 1 + single-sample requests = FairShareScheduler's
        exact group sequence."""
        weighted, fair = WeightedFairScheduler(), FairShareScheduler()
        for scheduler in (weighted, fair):
            for sid in (1, 2, 3):
                for i in range(4):
                    scheduler.enqueue(request(sid, i))
        while fair.pending:
            got = [(r.session_id, r.request_id)
                   for r in weighted.next_group(4)]
            want = [(r.session_id, r.request_id) for r in fair.next_group(4)]
            assert got == want
        assert weighted.pending == 0

    def test_zero_weight_session_is_best_effort(self):
        """Starved while paying work is queued; served when alone."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 1.0)
        scheduler.set_session_weight(9, 0.0)
        for i in range(3):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(9, i))
        first = scheduler.next_group(max_batch=8)
        assert [r.session_id for r in first] == [1, 1, 1]
        second = scheduler.next_group(max_batch=8)
        assert [r.session_id for r in second] == [9, 9, 9]
        assert scheduler.pending == 0

    def test_key_mismatch_skips_session_not_tick(self):
        scheduler = WeightedFairScheduler()
        scheduler.enqueue(request(1, 0))
        scheduler.enqueue(request(2, 0, shape=(4, 3, 3)))
        scheduler.enqueue(request(3, 0))
        group = scheduler.next_group(max_batch=8)
        assert [r.session_id for r in group] == [1, 3]
        assert scheduler.pending == 1

    def test_cancel_session_clears_all_state(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 5.0)
        scheduler.enqueue(request(1, 0))
        scheduler.enqueue(request(2, 0))
        assert len(scheduler.cancel_session(1)) == 1
        assert 1 not in scheduler._weights
        assert 1 not in scheduler._deficits
        assert [r.session_id for r in scheduler.next_group(4)] == [2]
        assert scheduler.cancel_session(1) == []

    def test_weight_validation(self):
        scheduler = WeightedFairScheduler()
        with pytest.raises(ValueError, match="weight"):
            scheduler.set_session_weight(1, -1.0)
        with pytest.raises(ValueError, match="weight"):
            scheduler.set_session_weight(1, math.inf)

    def test_deficit_resets_when_queue_drains(self):
        """An idle tenant cannot bank credit for a later burst."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 4.0)
        scheduler.set_session_weight(2, 1.0)
        scheduler.enqueue(request(1, 0))
        scheduler.next_group(max_batch=8)  # drains tenant 1's only request
        assert scheduler._deficits.get(1) is None

    def test_service_level_weighted_fairness(self):
        """Through the full service: weight plumbs from open to scheduler."""
        service = identity_service(scheduler="weighted", max_batch=3,
                                   max_queue=64)
        heavy = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                      weight=2.0)
        light = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                      weight=1.0)
        assert heavy.weight == 2.0
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        for _ in range(12):
            heavy.submit_features(features)
            light.submit_features(features)
        served = {heavy.session_id: 0, light.session_id: 0}
        while heavy.outstanding and light.outstanding:
            for response in service.tick():
                served[response.session_id] += response.outputs[0].shape[0]
        assert served[heavy.session_id] == 2 * served[light.session_id]

    def test_negative_weight_rejected_at_open(self):
        service = identity_service(scheduler="weighted")
        with pytest.raises(ValueError, match="weight"):
            service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                  weight=-2.0)

    def test_failed_adopt_leaves_no_session_behind(self):
        """Regression: a rejected weight must not register a live session
        nor burn (and later reuse) its session id."""
        service = identity_service(scheduler="weighted")
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="weight"):
                service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                      weight=bad)
        assert service.sessions == ()
        good = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        assert service.sessions == (good,)
        assert good.session_id == 1  # no ids were burned by failed adopts


class TestRateLimit:
    def test_parse(self):
        assert RateLimit.parse(None) is None
        limit = RateLimit.parse(5.0)
        assert limit.rate_per_s == 5.0 and limit.burst == 1.0
        limit = RateLimit.parse((5.0, 8))
        assert limit.burst == 8
        assert RateLimit.parse(limit) is limit

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            RateLimit(rate_per_s=0.0)
        with pytest.raises(ValueError, match="burst"):
            RateLimit(rate_per_s=1.0, burst=0.5)

    def test_bucket_refills_from_clock(self):
        limiter = RateLimiter(RateLimit(rate_per_s=2.0, burst=3), now=0.0)
        assert limiter.try_acquire(0.0)
        assert limiter.try_acquire(0.0)
        assert limiter.try_acquire(0.0)
        assert not limiter.try_acquire(0.0)  # bucket empty
        assert limiter.try_acquire(0.5)      # 0.5 s * 2/s = 1 token
        assert not limiter.try_acquire(0.5)
        assert limiter.available(10.0) == 3.0  # capped at burst

    def test_clock_never_rewinds_the_bucket(self):
        limiter = RateLimiter(RateLimit(rate_per_s=1.0, burst=1), now=5.0)
        assert limiter.try_acquire(5.0)
        assert not limiter.try_acquire(2.0)  # the past earns no tokens
        assert limiter.seconds_until() == pytest.approx(1.0)


class TestServiceRateLimiting:
    def make_limited(self, **kwargs):
        service = identity_service(max_queue=64, **kwargs)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                        rate_limit=RateLimit(rate_per_s=10.0,
                                                             burst=2))
        return service, session

    def test_burst_then_throttle(self):
        service, session = self.make_limited()
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        session.submit_features(features)
        session.submit_features(features)
        with pytest.raises(RateLimitedError, match="rate limit"):
            session.submit_features(features)
        assert service.stats.throttled_requests == 1
        assert service.stats.rejected_requests == 0  # distinct counters
        # Nothing was transmitted or queued for the throttled request.
        assert session.stats.uplink_messages == 2
        assert service.pending == 2

    def test_refill_on_virtual_clock(self):
        service, session = self.make_limited()
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        session.submit_features(features)
        session.submit_features(features)
        service.advance_clock(0.1)  # 0.1 s * 10/s = one token back
        session.submit_features(features)
        assert service.stats.throttled_requests == 0

    def test_tokens_do_not_leak_across_close_and_reopen(self):
        """Bucket state dies with the session: a reopened tenant starts
        from a full burst, never from the old session's drained (or
        half-refilled) bucket."""
        service, session = self.make_limited()
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        session.submit_features(features)
        session.submit_features(features)  # drained
        old_limiter = session.limiter
        assert old_limiter.available(service.now) == pytest.approx(0.0)
        service.close_session(session)
        reopened = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                         rate_limit=RateLimit(rate_per_s=10.0,
                                                              burst=2))
        assert reopened.session_id != session.session_id
        assert reopened.limiter is not old_limiter
        assert reopened.limiter.available(service.now) == pytest.approx(2.0)
        reopened.submit_features(features)
        reopened.submit_features(features)
        with pytest.raises(RateLimitedError):
            reopened.submit_features(features)

    def test_backpressure_does_not_spend_tokens(self):
        service = identity_service(max_queue=1)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                        rate_limit=RateLimit(rate_per_s=1.0,
                                                             burst=5))
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        session.submit_features(features)
        from repro.serving import BackpressureError
        with pytest.raises(BackpressureError):
            session.submit_features(features)
        assert service.stats.rejected_requests == 1
        assert service.stats.throttled_requests == 0
        assert session.limiter.available(service.now) == pytest.approx(4.0)

    def test_service_default_limit_and_explicit_unlimited(self):
        service = identity_service(rate_limit=(10.0, 1))
        limited = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        unlimited = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                          rate_limit=None)
        assert limited.limiter is not None
        assert unlimited.limiter is None
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        limited.submit_features(features)
        with pytest.raises(RateLimitedError):
            limited.submit_features(features)
        for _ in range(5):
            unlimited.submit_features(features)

    def test_simulate_counts_throttled(self):
        service = identity_service(scheduler="fifo", max_queue=256)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                        rate_limit=RateLimit(rate_per_s=1.0,
                                                             burst=2))
        features = rng.random((1, 4, 2, 2)).astype(np.float32)
        trace = bursty_trace(num_sessions=1, bursts=1, burst_size=6,
                             burst_gap_s=1.0)
        report = simulate(service, [session], trace, TickCost(),
                          default_features=features)
        assert report.throttled == 4  # burst 2 admitted, 4 shed
        assert report.served == 2
        assert report.latencies_by_session[session.session_id]


class TestInt8Codec:
    def test_parse_and_itemsize(self):
        assert Codec.parse("int8") is Codec.INT8
        assert Codec.parse(2) is Codec.INT8
        assert Codec.INT8.wire_itemsize == 1
        assert Codec.FP16.wire_itemsize == 2
        assert Codec.FP32.wire_itemsize == 4

    def test_round_trip_error_bounded(self):
        maps = [rng.random((2, 8, 4, 4)).astype(np.float32) * scale - shift
                for scale, shift in ((1.0, 0.0), (100.0, 50.0), (1e-3, 0.0))]
        response = FeatureResponse.encode(1, 0, maps, codec="int8")
        assert response.quant is not None
        for decoded, original in zip(response.decoded(), maps):
            span = float(original.max() - original.min())
            bound = span / 510.0 * 1.01 + 1e-9
            assert float(np.abs(decoded - original).max()) <= bound

    def test_constant_map_is_exact(self):
        for value in (0.0, 3.25, -7.5, 1e30):
            arr = np.full((1, 4, 2, 2), value, dtype=np.float32)
            response = FeatureResponse.encode(1, 0, [arr], codec="int8")
            parsed = FeatureResponse.from_bytes(response.to_bytes())
            np.testing.assert_array_equal(parsed.decoded()[0], arr)

    def test_extreme_range_map(self):
        arr = np.array([[-3e38, 3e38, 0.0, 1.0]], dtype=np.float32)
        response = FeatureResponse.encode(1, 0, [arr], codec="int8")
        decoded = FeatureResponse.from_bytes(response.to_bytes()).decoded()[0]
        span = float(arr.max()) - float(arr.min())
        assert np.all(np.isfinite(decoded))
        assert float(np.abs(decoded - arr).max()) <= span / 510.0 * 1.01

    def test_qparams_travel_in_header_bytes(self):
        """The wire size of an int8 frame is exactly header + int8 payload;
        scale/offset ride in the reserved shape slots and survive the
        byte round trip."""
        arr = rng.random((2, 4, 3, 3)).astype(np.float32)
        response = FeatureResponse.encode(7, 9, [arr], codec="int8")
        data = response.to_bytes()
        assert len(data) == response.wire_nbytes() == arr.size + HEADER_BYTES
        parsed = FeatureResponse.from_bytes(data)
        assert parsed.codec is Codec.INT8
        assert parsed.quant == response.quant
        scale, offset = parsed.quant[0]
        assert scale > 0
        assert offset == pytest.approx(float(arr.min()))

    def test_denormal_span_map_round_trips_as_float32(self):
        """Regression: a sub-normal span must not underflow the scale to
        0 in the header (which made the decoder return raw int8); such a
        map reconstructs as its minimum, error <= span."""
        arr = np.array([[0.0, 1e-44, 5e-45, 1e-44]], dtype=np.float32)
        response = FeatureResponse.encode(1, 0, [arr], codec="int8")
        scale, offset = response.quant[0]
        assert scale > 0
        decoded = FeatureResponse.from_bytes(response.to_bytes()).decoded()[0]
        assert decoded.dtype == np.float32
        assert np.all(np.isfinite(decoded))
        span = float(arr.max()) - float(arr.min())
        assert float(np.abs(decoded - arr).max()) <= span

    def test_large_offset_map_keeps_the_bound(self):
        """Maps far from zero must not lose quantisation levels to
        float32 rounding of the affine parameters (regression: a combined
        zero-point ``-128 - min/scale`` broke the bound by 500x here)."""
        for lo, span in ((1e7, 1.0), (1e8, 10.0), (-1e7, 2.0)):
            arr = (lo + rng.random((2, 8, 4, 4)) * span).astype(np.float32)
            response = FeatureResponse.encode(1, 0, [arr], codec="int8")
            decoded = FeatureResponse.from_bytes(response.to_bytes()).decoded()[0]
            real_span = float(arr.max()) - float(arr.min())
            err = float(np.abs(decoded.astype(np.float64)
                               - arr.astype(np.float64)).max())
            # float32 ulp at the offset's magnitude is the resolution floor
            ulp = float(np.spacing(np.float32(abs(lo))))
            assert err <= real_span / 510.0 * 1.01 + ulp / 2 + 1e-9

    def test_downlink_reduction_is_nearly_4x(self):
        big = rng.random((8, 16, 8, 8)).astype(np.float32)
        fp32 = FeatureResponse.encode(1, 0, [big] * 4, codec="fp32")
        int8 = FeatureResponse.encode(1, 0, [big] * 4, codec="int8")
        ratio = fp32.wire_nbytes() / int8.wire_nbytes()
        assert ratio >= 3.5

    def test_five_dim_quantised_array_rejected(self):
        arr = np.zeros((1, 2, 2, 2, 2), dtype=np.float32)
        response = FeatureResponse.encode(1, 0, [arr], codec="int8")
        with pytest.raises(ProtocolError, match="1..4-d"):
            response.to_bytes()

    def test_narrow_widen_refuse_int8(self):
        with pytest.raises(ValueError, match="encode_array"):
            Codec.INT8.narrow(np.zeros((1, 2), np.float32))
        with pytest.raises(ValueError, match="decode_array"):
            Codec.INT8.widen(np.zeros((1, 2), np.int8))

    def test_ssim_drift_is_bounded(self):
        """Quantising an image-shaped map barely moves SSIM — the regime
        where ensemble-inversion reconstructions degrade faster than
        task features (the accuracy–privacy framing of the codec)."""
        image = rng.random((3, 16, 16)).astype(np.float32)
        response = FeatureResponse.encode(1, 0, [image], codec="int8")
        decoded = FeatureResponse.from_bytes(response.to_bytes()).decoded()[0]
        assert ssim(image, decoded, data_range=1.0) >= 0.99

    def test_end_to_end_session_negotiation(self):
        """A service-level int8 session returns logits close to fp32's and
        charges the narrowed downlink exactly."""
        service = identity_service(num_bodies=3, codec="fp32")
        fp32 = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        int8 = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                     codec="int8")
        assert int8.codec is Codec.INT8
        features = rng.random((2, 4, 4, 4)).astype(np.float32)
        rid32 = fp32.submit_features(features)
        rid8 = int8.submit_features(features)
        service.run_until_idle()
        out32 = fp32.take_response(rid32).decoded()
        out8 = int8.take_response(rid8).decoded()
        span = float(features.max() - features.min())
        for a, b in zip(out8, out32):
            assert a.dtype == np.float32
            assert float(np.abs(a - b).max()) <= span / 510.0 * 1.01
        payload = features.size * 4
        assert fp32.stats.downlink_bytes == 3 * (payload + HEADER_BYTES)
        assert int8.stats.downlink_bytes == 3 * (payload // 4 + HEADER_BYTES)

    def test_serving_config_accepts_int8(self):
        from repro.serving import ServingConfig
        config = ServingConfig(codec="int8", rate_limit=(5.0, 2))
        assert config.codec == "int8"
        assert config.rate_limit == RateLimit(5.0, 2)


class TestSampleCostRateLimit:
    """The token bucket charges per request, whatever the upload's
    batch size."""

    def make_session(self, limit):
        service = identity_service(max_queue=64)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                        rate_limit=limit)
        return service, session

    def features(self, batch):
        return rng.random((batch, 4, 2, 2)).astype(np.float32)

    def test_request_cost_ignores_batch_size(self):
        """One token per request, however many samples the upload
        carries."""
        service, session = self.make_session(RateLimit(rate_per_s=10.0,
                                                       burst=2))
        session.submit_features(self.features(4))
        session.submit_features(self.features(4))
        with pytest.raises(RateLimitedError, match="req/s"):
            session.submit_features(self.features(1))
        assert service.stats.throttled_requests == 1

    def test_throttled_batch_spends_nothing(self):
        service, session = self.make_session(RateLimit(rate_per_s=10.0,
                                                       burst=2))
        session.submit_features(self.features(3))
        session.submit_features(self.features(3))  # drained
        service.advance_clock(0.05)  # half a token back
        with pytest.raises(RateLimitedError):
            session.submit_features(self.features(3))
        assert session.limiter.available(service.now) == pytest.approx(0.5)


class TestHierarchicalRateClasses:
    """One level of nesting in the weighted scheduler (PR 9): a rate
    class buys a fixed aggregate share; members split it internally."""

    def serve_window(self, scheduler, groups, max_batch=3):
        served = {}
        for _ in range(groups):
            for r in scheduler.next_group(max_batch=max_batch):
                served[r.session_id] = served.get(r.session_id, 0) \
                    + r.batch_size
        return served

    def test_class_share_fixed_regardless_of_member_count(self):
        """Two unit-weight members of a weight-2 class together match a
        weight-2 outsider, member-for-member splitting their half."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 1.0)
        scheduler.set_rate_class(1, "org", class_weight=2.0)
        scheduler.set_session_weight(2, 1.0)
        scheduler.set_rate_class(2, "org")
        scheduler.set_session_weight(3, 2.0)
        for i in range(40):
            for sid in (1, 2, 3):
                scheduler.enqueue(request(sid, i))
        served = self.serve_window(scheduler, 20)  # all stay backlogged
        assert served[1] + served[2] == served[3]
        assert served[1] == served[2]

    def test_idle_member_slice_flows_to_classmates(self):
        """With one member idle, the lone backlogged member inherits the
        whole class weight — the class share never leaks."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 1.0)
        scheduler.set_rate_class(1, "org", class_weight=2.0)
        scheduler.set_session_weight(2, 1.0)
        scheduler.set_rate_class(2, "org")  # registered but never queues
        scheduler.set_session_weight(3, 2.0)
        for i in range(40):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(3, i))
        served = self.serve_window(scheduler, 20)
        assert served[1] == served[3]
        assert 2 not in served

    def test_intra_class_weights_split_proportionally(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 3.0)
        scheduler.set_rate_class(1, "org", class_weight=4.0)
        scheduler.set_session_weight(2, 1.0)
        scheduler.set_rate_class(2, "org")
        for i in range(80):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(2, i))
        served = self.serve_window(scheduler, 20)
        ratio = served[1] / served[2]
        assert abs(ratio - 3.0) / 3.0 <= 0.15, served

    def test_zero_weight_member_stays_best_effort(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 1.0)
        scheduler.set_rate_class(1, "org", class_weight=5.0)
        scheduler.set_session_weight(9, 0.0)
        scheduler.set_rate_class(9, "org")
        for i in range(3):
            scheduler.enqueue(request(1, i))
            scheduler.enqueue(request(9, i))
        first = scheduler.next_group(max_batch=8)
        assert [r.session_id for r in first] == [1, 1, 1]
        second = scheduler.next_group(max_batch=8)
        assert [r.session_id for r in second] == [9, 9, 9]

    def test_class_weight_required_on_first_use(self):
        scheduler = WeightedFairScheduler()
        with pytest.raises(ValueError, match="no weight yet"):
            scheduler.set_rate_class(1, "org")
        scheduler.set_rate_class(1, "org", class_weight=2.0)
        scheduler.set_rate_class(2, "org")  # now fine
        assert scheduler.rate_class_of(2) == "org"

    def test_class_weight_validation(self):
        scheduler = WeightedFairScheduler()
        with pytest.raises(ValueError, match="class_weight"):
            scheduler.set_rate_class(1, "org", class_weight=0.0)
        with pytest.raises(ValueError, match="class_weight"):
            scheduler.set_rate_class(1, "org", class_weight=math.inf)

    def test_cancel_session_clears_class_membership(self):
        scheduler = WeightedFairScheduler()
        scheduler.set_rate_class(1, "org", class_weight=2.0)
        assert scheduler.rate_class_of(1) == "org"
        scheduler.cancel_session(1)
        assert scheduler.rate_class_of(1) is None

    def test_unclassed_sessions_unaffected(self):
        """Raw weight_of stays the negotiated weight — contention and
        best-effort logic see no change from classes existing."""
        scheduler = WeightedFairScheduler()
        scheduler.set_session_weight(1, 2.0)
        scheduler.set_rate_class(2, "org", class_weight=8.0)
        assert scheduler.weight_of(1) == 2.0
        assert scheduler._effective_weight(1) == 2.0
