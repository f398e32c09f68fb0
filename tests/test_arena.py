"""Differential tests for the serving tensor arena and speculative groups.

The :class:`repro.nn.arena.TensorArena` lends *scratch* buffers (im2col
columns, pad canvases, the uplink staging buffer) to fused serving
passes and keeps them alive across ticks.  Its safety contract — no
arena byte ever escapes into a served feature map, and a shape/dtype
change can never serve a stale view — is enforced here adversarially:

* **poisoning** — NaN-fill every pooled buffer between ticks; served
  outputs must stay byte-identical to the no-arena reference (a single
  leaked arena element would surface as NaN);
* **invalidation** — alternate coalesce keys across ticks; every slot
  re-allocates on mismatch and still serves reference outputs;
* **speculative groups** — mixed-spatial requests served in one tick
  (canvas pad/crop on padding-safe engines, per-key sub-passes
  otherwise) must match per-request reference serving exactly.
"""

import numpy as np
import pytest

from repro import nn
from repro.ci.pipeline import Client, Server
from repro.nn.arena import TensorArena, active_arena, use_arena
from repro.nn.tensor import Tensor, no_grad
from repro.serving.scheduler import speculative_compatible
from repro.serving.service import InferenceService
from repro.utils.rng import new_rng


class TestTensorArenaUnit:
    def test_seq_slots_reuse_across_passes(self):
        arena = TensorArena()
        arena.begin_pass()
        first = arena.take("cols", (2, 3), np.float32)
        second = arena.take("cols", (2, 3), np.float32)
        assert first is not second  # same tag, same pass: distinct slots
        arena.begin_pass()
        assert arena.take("cols", (2, 3), np.float32) is first
        assert arena.take("cols", (2, 3), np.float32) is second
        assert arena.hits == 2 and arena.misses == 2

    def test_named_slots_are_singletons(self):
        arena = TensorArena()
        buf = arena.take_named("staging", (4, 2), np.float32)
        assert arena.take_named("staging", (4, 2), np.float32) is buf
        assert arena.num_buffers == 1

    @pytest.mark.parametrize("mutate", ["shape", "dtype"])
    def test_mismatch_invalidates_slot(self, mutate):
        arena = TensorArena()
        arena.begin_pass()
        old = arena.take("cols", (2, 3), np.float32)
        arena.begin_pass()
        shape = (2, 4) if mutate == "shape" else (2, 3)
        dtype = np.float32 if mutate == "shape" else np.float64
        fresh = arena.take("cols", shape, dtype)
        assert fresh is not old
        assert fresh.shape == shape and fresh.dtype == dtype
        assert arena.misses == 2 and arena.hits == 0

    def test_poison_fills_floats_and_ints(self):
        arena = TensorArena()
        arena.begin_pass()
        f = arena.take("f", (3,), np.float32)
        i = arena.take("i", (3,), np.int64)
        arena.poison()
        assert np.isnan(f).all()
        assert (i == np.iinfo(np.int64).min).all()

    def test_clear_drops_buffers_and_counters(self):
        arena = TensorArena()
        arena.begin_pass()
        arena.take("cols", (2,), np.float32)
        arena.clear()
        assert arena.num_buffers == 0 and arena.nbytes == 0

    def test_nbytes_tracks_pool(self):
        arena = TensorArena()
        arena.begin_pass()
        arena.take("a", (4,), np.float32)
        arena.take_named("b", (2, 2), np.float64)
        assert arena.nbytes == 4 * 4 + 4 * 8

    def test_use_arena_nests_and_restores(self):
        outer, inner = TensorArena(), TensorArena()
        assert active_arena() is None
        with use_arena(outer):
            assert active_arena() is outer
            with use_arena(inner):
                assert active_arena() is inner
            assert active_arena() is outer
            with use_arena(None):  # optional-arena callers pass None through
                assert active_arena() is None
            assert active_arena() is outer
        assert active_arena() is None

    def test_use_arena_resets_pass_counters(self):
        arena = TensorArena()
        with use_arena(arena):
            first = arena.take("cols", (2,), np.float32)
        with use_arena(arena):
            assert arena.take("cols", (2,), np.float32) is first


def make_resnet_bodies(num_nets: int = 3) -> list[nn.Module]:
    """3x3-conv bodies: NOT padding-safe (spatial receptive field)."""
    bodies = []
    for i in range(num_nets):
        rng = new_rng(80 + i)
        body = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng), nn.BatchNorm2d(6),
            nn.ReLU(), nn.Conv2d(6, 6, 3, padding=1, rng=rng), nn.ReLU())
        body.train()
        with no_grad():
            body(Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32)))
        body.eval()
        bodies.append(body)
    return bodies


def make_pointwise_bodies(num_nets: int = 3) -> list[nn.Module]:
    """1x1-conv bodies: padding-safe, eligible for canvas batching."""
    bodies = []
    for i in range(num_nets):
        rng = new_rng(90 + i)
        body = nn.Sequential(
            nn.Conv2d(3, 5, 1, rng=rng), nn.BatchNorm2d(5), nn.ReLU(),
            nn.Conv2d(5, 5, 1, rng=rng), nn.Sigmoid())
        body.train()
        with no_grad():
            body(Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32)))
        body.eval()
        bodies.append(body)
    return bodies


def serve_reference(make_bodies, feats: list[np.ndarray]) -> list[list]:
    """Per-request serving with every fast-path feature off."""
    service = InferenceService(Server(make_bodies(), fold_bn=False),
                               max_batch=1, fast_path=False)
    session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
    ids = [session.submit_features(f) for f in feats]
    service.run_until_idle()
    return [session.result(rid) for rid in ids]


class TestArenaServiceIntegration:
    def _fast_service(self, make_bodies, **kwargs):
        # fold_bn=False isolates the arena: outputs must be *bit*-equal
        # to the no-arena reference (the fold's own parity is ≤1e-5 and
        # covered by test_fold_parity).
        service = InferenceService(Server(make_bodies(), fold_bn=False),
                                   fast_path=True, **kwargs)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        return service, session

    def test_poisoned_arena_never_leaks_into_outputs(self):
        service, session = self._fast_service(make_resnet_bodies)
        rng = np.random.default_rng(14)
        feats = [rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
                 for _ in range(4)]
        reference = serve_reference(make_resnet_bodies, feats)
        results = []
        for i, f in enumerate(feats):
            rid = session.submit_features(f)
            service.tick()
            results.append(session.result(rid))
            assert service.arena.num_buffers > 0  # the pool is really live
            service.arena.poison()  # stale bytes must all be overwritten
        for maps, ref_maps in zip(results, reference):
            for a, b in zip(maps, ref_maps):
                assert np.isfinite(a).all()
                np.testing.assert_array_equal(a, b)

    def test_arena_buffers_are_reused_between_ticks(self):
        service, session = self._fast_service(make_resnet_bodies)
        rng = np.random.default_rng(15)
        f = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        session.submit_features(f)
        service.tick()
        pooled = service.arena.num_buffers
        assert pooled > 0
        service.arena.hits = service.arena.misses = 0
        session.submit_features(f)
        service.tick()
        assert service.arena.num_buffers == pooled  # same working set
        assert service.arena.misses == 0 and service.arena.hits > 0

    def test_batch_size_changes_reuse_the_pool(self):
        """Ticks of 8 and 3 coalesced requests alternate without misses."""
        service, session = self._fast_service(make_resnet_bodies, max_batch=8)
        rng = np.random.default_rng(20)
        f = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        reference = serve_reference(make_resnet_bodies, [f])[0]
        misses = []
        for requests in [8, 3] * 4:
            ids = [session.submit_features(f) for _ in range(requests)]
            service.tick()
            misses.append(service.arena.misses)
            for rid in ids:
                for a, b in zip(session.result(rid), reference):
                    np.testing.assert_array_equal(a, b)
            service.arena.poison()
        assert misses[0] > 0
        assert misses[-1] == misses[1]  # flat after the first 8/3 pair

    def test_shape_change_invalidates_across_ticks(self):
        """Alternating coalesce keys must re-allocate, never serve stale."""
        service, session = self._fast_service(make_resnet_bodies)
        rng = np.random.default_rng(16)
        feats = [rng.standard_normal(shape).astype(np.float32)
                 for shape in [(2, 3, 6, 6), (3, 3, 8, 8), (2, 3, 6, 6),
                               (1, 3, 4, 4)]]
        reference = serve_reference(make_resnet_bodies, feats)
        for f, ref_maps in zip(feats, reference):
            rid = session.submit_features(f)
            service.tick()
            service.arena.poison()
            for a, b in zip(session.result(rid), ref_maps):
                np.testing.assert_array_equal(a, b)

    def test_staging_buffer_coalesces_multi_request_groups(self):
        service, session = self._fast_service(make_resnet_bodies)
        other = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        rng = np.random.default_rng(17)
        feats = [rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
                 for _ in range(2)]
        reference = serve_reference(make_resnet_bodies, feats)
        ids = [session.submit_features(feats[0]),
               other.submit_features(feats[1])]
        service.tick()
        assert service.stats.ticks == 1  # one pass served both requests
        for sess, rid, ref_maps in zip([session, other], ids, reference):
            for a, b in zip(sess.result(rid), ref_maps):
                np.testing.assert_array_equal(a, b)


class TestSpeculativeGroups:
    def test_speculative_compatible_predicate(self):
        from repro.serving.protocol import UploadRequest

        a = UploadRequest(1, 0, np.zeros((2, 3, 6, 6), dtype=np.float32))
        b = UploadRequest(1, 1, np.zeros((1, 3, 8, 8), dtype=np.float32))
        c = UploadRequest(1, 2, np.zeros((1, 4, 8, 8), dtype=np.float32))
        d = UploadRequest(1, 3, np.zeros((1, 3, 8, 8), dtype=np.float64))
        assert speculative_compatible(a, b)       # spatial sizes may differ
        assert not speculative_compatible(a, c)   # channels must match
        assert not speculative_compatible(a, d)   # dtype must match

    def _mixed_spatial_case(self, make_bodies, expect_canvas):
        feats = [np.random.default_rng(18 + i).standard_normal(shape)
                 .astype(np.float32)
                 for i, shape in enumerate([(2, 3, 6, 6), (1, 3, 8, 8),
                                            (2, 3, 4, 4)])]
        reference = serve_reference(make_bodies, feats)
        service = InferenceService(Server(make_bodies(), fold_bn=False),
                                   fast_path=True, speculative=True,
                                   max_batch=8)
        assert service.server.padding_safe is expect_canvas
        sessions = [service.adopt_session(Client(nn.Identity(),
                                                 nn.Identity()))
                    for _ in feats]
        ids = [s.submit_features(f) for s, f in zip(sessions, feats)]
        service.tick()
        assert service.stats.ticks == 1  # ONE tick served all three shapes
        assert service.stats.speculative_merges == 1
        for sess, rid, ref_maps in zip(sessions, ids, reference):
            for a, b in zip(sess.result(rid), ref_maps):
                np.testing.assert_array_equal(a, b)

    def test_canvas_pass_on_padding_safe_engine(self):
        """Pointwise engines pad onto one canvas and crop back, exactly."""
        self._mixed_spatial_case(make_pointwise_bodies, expect_canvas=True)

    def test_subpasses_on_padding_unsafe_engine(self):
        """3x3 engines fall back to one exact sub-pass per coalesce key."""
        self._mixed_spatial_case(make_resnet_bodies, expect_canvas=False)

    def test_homogeneous_groups_never_count_as_merges(self):
        service = InferenceService(Server(make_pointwise_bodies(),
                                          fold_bn=False),
                                   fast_path=True, speculative=True)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        f = np.random.default_rng(19).standard_normal(
            (2, 3, 6, 6)).astype(np.float32)
        session.submit_features(f)
        session.submit_features(f)
        service.tick()
        assert service.stats.ticks == 1
        assert service.stats.speculative_merges == 0
