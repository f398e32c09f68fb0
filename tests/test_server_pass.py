"""The eval server pass: image chunks and the in-place block epilogue.

``Server.compute`` runs its fused engine over chunks of the uploaded
batch (:data:`repro.ci.pipeline.CHUNK_BYTES`), and the eval
``StackedBasicBlock`` writes its ReLU and residual add into the fresh
conv outputs.  Neither may change a served bit:

* **chunks** — at batch sizes around the chunk size, chunked outputs
  equal the whole-batch engine pass bit for bit (and the looped
  reference to ≤ 1e-5), also through a service whose arena is poisoned
  between ticks, and a chunked pass pools exactly the arena slots of a
  one-chunk pass;
* **in place** — ``Tensor.relu(inplace=True)`` refuses a tensor whose
  backward would be wired, and the eval block leaves its input unchanged
  and matches the composed grad-mode path bit for bit, with folded and
  unfolded batch norm.
"""

import numpy as np
import pytest

from repro import nn
from repro.ci import pipeline
from repro.ci.pipeline import Client, Server
from repro.models.resnet import BasicBlock, ResNetBody, ResNetConfig
from repro.nn.batched import StackedBodies, fold_batch_norm
from repro.nn.tensor import Tensor, no_grad
from repro.serving.service import InferenceService
from repro.utils.rng import new_rng

NUM_NETS = 3
CHUNK = 3  # images per chunk under ``chunk_images``
CONFIG = ResNetConfig(num_classes=4, in_channels=3, stem_channels=4,
                      stage_channels=(4, 8), blocks_per_stage=(1, 1),
                      use_maxpool=False)


def make_bodies() -> list[ResNetBody]:
    """Eval bodies whose batch-norm statistics moved off their init."""
    bodies = []
    for i in range(NUM_NETS):
        rng = new_rng(300 + i)
        body = ResNetBody(CONFIG, rng)
        with no_grad():
            body(Tensor(rng.standard_normal((4, 4, 6, 6)).astype(np.float32)))
        bodies.append(body.eval())
    return bodies


def features(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4, 6, 6)).astype(np.float32)


@pytest.fixture
def chunk_images(monkeypatch):
    """Shrink the chunk budget to ``CHUNK`` images of ``features``."""
    monkeypatch.setattr(pipeline, "CHUNK_BYTES",
                        CHUNK * NUM_NETS * features(1)[0].nbytes)


def whole_batch(server: Server, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return server._engine(NUM_NETS)(Tensor(x)).data


BATCH_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]


class TestChunkedPass:
    @pytest.mark.parametrize("fold_bn", [True, False])
    def test_chunks_match_whole_batch_and_loop(self, chunk_images, fold_bn):
        bodies = make_bodies()
        server = Server(bodies, fold_bn=fold_bn)
        looped = Server(bodies, backend="looped")
        for n in BATCH_SIZES:
            x = features(n, seed=n)
            served = server.compute(x)
            reference = whole_batch(server, x)
            for i, out in enumerate(served):
                np.testing.assert_array_equal(out, reference[i])
            for out, ref in zip(served, looped.compute(x)):
                assert np.abs(out - ref).max() <= 1e-5

    def _service(self) -> tuple[InferenceService, object]:
        service = InferenceService(Server(make_bodies()), max_batch=1)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        return service, session

    def test_poisoned_arena_serves_whole_batch_bits(self, chunk_images):
        service, session = self._service()
        for n in BATCH_SIZES:
            x = features(n, seed=10 + n)
            rid = session.submit_features(x)
            service.tick()
            service.arena.poison()
            reference = whole_batch(service.server, x)
            served = session.take_response(rid).decoded()
            assert len(served) == NUM_NETS
            for i, out in enumerate(served):
                np.testing.assert_array_equal(out, reference[i])

    def test_chunks_reuse_one_chunks_arena_slots(self, monkeypatch):
        """Every chunk rewinds the arena, so a pass over three chunks
        pools the same slots as a pass over one."""
        pools = []
        for images in (CHUNK, 4 * CHUNK):
            monkeypatch.setattr(pipeline, "CHUNK_BYTES",
                                images * NUM_NETS * features(1)[0].nbytes)
            service, session = self._service()
            session.submit_features(features(2 * CHUNK + 3))
            service.tick()
            pools.append((service.arena.nbytes, service.arena.num_buffers))
        assert pools[0] == pools[1]


def make_blocks(stride: int, in_c: int, out_c: int) -> list[BasicBlock]:
    """Blocks with random batch-norm affine maps and statistics."""
    blocks = []
    for i in range(NUM_NETS):
        rng = new_rng(400 + i)
        block = BasicBlock(in_c, out_c, stride, rng)
        for module in block.modules():
            if isinstance(module, nn.BatchNorm2d):
                c = module.num_features
                module.gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
                module.beta.data = rng.normal(0, 0.5, c).astype(np.float32)
                module.running_mean[...] = rng.normal(0, 0.5, c)
                module.running_var[...] = rng.uniform(0.5, 2.0, c)
        blocks.append(block.eval())
    return blocks


class TestInplaceEpilogue:
    def test_inplace_relu_refuses_a_wired_backward(self):
        x = Tensor(np.array([-1.0, 2.0], dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError, match="in-place relu"):
            x.relu(inplace=True)
        np.testing.assert_array_equal(x.data, [-1.0, 2.0])
        with no_grad():
            assert x.relu(inplace=True) is x
        np.testing.assert_array_equal(x.data, [0.0, 2.0])
        plain = Tensor(np.array([-3.0, 4.0], dtype=np.float32))
        assert plain.relu(inplace=True) is plain  # nothing to wire
        np.testing.assert_array_equal(plain.data, [0.0, 4.0])

    @pytest.mark.parametrize("fold", [True, False])
    @pytest.mark.parametrize("stride,in_c,out_c", [(1, 4, 4), (2, 4, 6)],
                             ids=["identity", "projection"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "member"])
    def test_eval_block_matches_composed_path(self, fold, stride, in_c, out_c,
                                              shared):
        engine = StackedBodies.try_build(make_blocks(stride, in_c, out_c),
                                         eval_mode=True)
        if fold:
            fold_batch_norm(engine)
        block = engine.stacked
        shape = (5, in_c, 6, 6) if shared else (NUM_NETS, 5, in_c, 6, 6)
        x = np.random.default_rng(7).standard_normal(shape).astype(np.float32)
        before = x.copy()
        composed = block(Tensor(x)).data  # grad enabled: the composed path
        with no_grad():
            inplace = block(Tensor(x)).data
        np.testing.assert_array_equal(x, before)
        assert (inplace >= 0).all()
        np.testing.assert_array_equal(
            inplace.view(np.uint32), composed.view(np.uint32))
