"""The block-parallel no-grad conv kernel and the served pass around it.

:func:`repro.nn.functional._conv2d_nograd` shares a call's blocks out
among the calling thread and helper threads (one per further core, see
:func:`repro.nn.functional.kernel_workers`) once the call holds
:data:`repro.nn.functional.PARALLEL_BYTES` of columns.  The tests patch
the worker count and drop that bound to zero, so small layers run on
several threads.  Checked here:

* outputs are bit-identical to the one-worker kernel over many layer
  geometries, with an arena poisoned between calls;
* a helper's exception reaches the caller, and the call has joined
  every thread before it raises (also when the caller's own block
  fails), and a helper that never started is cancelled, not awaited;
* the helper pool is made again after a fork (a pid change);
* helpers run NumPy calls only: every module forward, ``arena.take``
  and ``profiling.record`` of a chunked ``Server.compute`` runs on the
  calling thread;
* ``Server.compute`` on a small-preset, multi-chunk batch agrees with a
  float64 per-body forward on the direct-sum conv of
  :mod:`tests.helpers`, which shares no code with the served lowering.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ci.pipeline import Server
from repro.experiments.common import get_preset
from repro.models.resnet import ResNetBody
from repro.nn import functional as F
from repro.nn import profiling
from repro.nn.arena import TensorArena, use_arena
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng
from tests.helpers import direct_resnet_body
from tests.test_conv_kernel import (images_per_block_budget, make_bodies,
                                    multi_block, threads)


@st.composite
def threaded_case(draw):
    """A ``multi_block`` layer with padding 0..k, a shared or per-member
    input, and an optional bias."""
    g = draw(multi_block)
    g["padding"] = draw(st.integers(0, g["k"]))
    g["shared"] = draw(st.booleans())
    g["bias"] = draw(st.booleans())
    return g


@settings(max_examples=60, deadline=None)
@given(g=threaded_case())
def test_threads_are_bit_identical_to_one_worker(g):
    k, s, p, block = g["k"], g["stride"], g["padding"], g["block"]
    full, extra = g["past"]
    e, n = g["members"], full * block + extra
    rng = np.random.default_rng(g["seed"])
    lead = (n,) if g["shared"] else (e, n)
    x = rng.standard_normal(lead + (g["in_c"], g["hw"], g["hw"])).astype(np.float32)
    w = (0.3 * rng.standard_normal((e, g["out_c"], g["in_c"], k, k))).astype(np.float32)
    b = Tensor(rng.standard_normal((e, g["out_c"])).astype(np.float32)) \
        if g["bias"] else None
    budget = images_per_block_budget(g["in_c"], k, s, p, g["hw"], g["hw"], block,
                                     bias=g["bias"])
    arena = TensorArena()
    outs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as often as they can
    try:
        with mock.patch.object(F, "BLOCK_BYTES", budget), no_grad(), \
                mock.patch.object(F, "_helper_pool", wraps=F._helper_pool) as pool:
            # more threads than cores; the widest slots first, so narrower
            # calls run on stale NaNs
            for workers in (3, 1, 2, 3, 1, 2):
                with threads(workers), use_arena(arena):
                    out = F.batched_conv2d(Tensor(x), Tensor(w), b, s, p).data
                arena.poison()
                if workers in outs:
                    np.testing.assert_array_equal(out, outs[workers])
                outs[workers] = out
    finally:
        sys.setswitchinterval(interval)
    assert pool.call_count == 4  # every multi-worker call dispatched
    for workers in (2, 3):
        assert outs[workers].view(np.uint32).tobytes() == \
            outs[1].view(np.uint32).tobytes()


def conv_case(n=4):
    """A per-member 3x3 layer of ``2·n`` one-image blocks."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, n, 3, 6, 6)).astype(np.float32)
    w = rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32)
    budget = images_per_block_budget(3, 3, 1, 1, 6, 6, 1, bias=False)
    return x, w, budget


class Boom(RuntimeError):
    pass


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_exception_reaches_caller_after_join(failing):
    """On three threads, one raises in its first block while a helper is
    still inside a slow block: the call must wait for that helper before
    the exception leaves it."""
    x, w, budget = conv_case()
    caller = threading.get_ident()
    matmul = np.matmul
    helpers, lock = [], threading.Lock()
    both_helpers_in = threading.Event()
    finished = []

    def faulty(*args, **kwargs):
        ident = threading.get_ident()
        if ident != caller:
            with lock:
                if ident not in helpers:
                    helpers.append(ident)
                if len(helpers) == 2:
                    both_helpers_in.set()
        # every thread holds its first block until both helpers hold one
        assert both_helpers_in.wait(10), "helpers ran no block"
        if ident == (caller if failing == "caller" else helpers[0]):
            raise Boom(failing)
        if ident != caller:
            time.sleep(0.1)  # a helper slow to finish its block
        result = matmul(*args, **kwargs)
        finished.append(time.perf_counter())
        return result

    with threads(3), mock.patch.object(F, "BLOCK_BYTES", budget), no_grad(), \
            mock.patch.object(np, "matmul", faulty):
        with pytest.raises(Boom, match=failing):
            F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1)
        raised = time.perf_counter()
    assert len(helpers) == 2 and finished and max(finished) < raised
    # the pool survives a failed call
    with threads(3), mock.patch.object(F, "BLOCK_BYTES", budget), no_grad():
        out = F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1).data
    with threads(1), mock.patch.object(F, "BLOCK_BYTES", budget), no_grad():
        np.testing.assert_array_equal(
            out, F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1).data)


def test_helper_that_never_starts_is_not_awaited():
    """A helper whose thread is busy elsewhere holds no block: the caller
    runs every block, cancels it and returns without waiting."""
    x, w, budget = conv_case()
    busy = ThreadPoolExecutor(1)
    release = threading.Event()
    busy.submit(release.wait)  # the pool's only thread is taken
    timer = threading.Timer(5, release.set)  # never hang the suite
    timer.start()
    try:
        with threads(2), mock.patch.object(F, "BLOCK_BYTES", budget), no_grad():
            with mock.patch.object(F, "_helper_pool", return_value=busy):
                start = time.perf_counter()
                out = F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1).data
                elapsed = time.perf_counter() - start
            with threads(1):
                expected = F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1).data
    finally:
        release.set()
        timer.cancel()
        busy.shutdown()
    assert elapsed < 2.5
    np.testing.assert_array_equal(out, expected)


def test_pool_is_made_again_after_fork():
    """A forked child inherits the pool object but none of its threads."""
    x, w, budget = conv_case()
    with threads(2), mock.patch.object(F, "BLOCK_BYTES", budget), no_grad():
        expected = F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1).data
        pool = F._helper_pool(1)
        assert F._helper_pool(1) is pool  # one pool per process
        with mock.patch("os.getpid", return_value=F._POOL[0] + 1):
            child = F._helper_pool(1)
            assert child is not pool
            with mock.patch.object(pool, "submit",
                                   side_effect=AssertionError("stale pool")):
                out = F.batched_conv2d(Tensor(x), Tensor(w), None, 1, 1).data
            assert F._helper_pool(1) is child
    np.testing.assert_array_equal(out, expected)


def test_chunked_compute_keeps_library_calls_on_calling_thread(monkeypatch):
    """Helpers run NumPy only: module forwards, arena slots and FLOP
    records (what perfbench's tracer and the arena see) all stay on the
    thread that called ``Server.compute``."""
    from repro.ci import pipeline

    bodies = make_bodies()
    feats = np.random.default_rng(3).standard_normal(
        (7, 3, 12, 12)).astype(np.float32)
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 3 * len(bodies) * feats[0].nbytes)
    seen = {"forward": set(), "take": set(), "record": set(), "matmul": set()}

    def spy(kind, fn):
        def wrapper(*args, **kwargs):
            seen[kind].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nn.Module, "__call__", spy("forward", nn.Module.__call__))
    monkeypatch.setattr(TensorArena, "take", spy("take", TensorArena.take))
    monkeypatch.setattr(profiling, "record", spy("record", profiling.record))
    monkeypatch.setattr(np, "matmul", spy("matmul", np.matmul))
    server = Server(bodies)
    with threads(2), mock.patch.object(F, "BLOCK_BYTES", 1), \
            mock.patch.object(F, "_helper_pool", wraps=F._helper_pool) as pool, \
            use_arena(TensorArena()):
        served = server.compute(feats)
    assert pool.call_count > 0 and seen["matmul"]
    caller = {threading.get_ident()}
    for kind in ("forward", "take", "record"):
        assert seen[kind] == caller, kind
    for a, b in zip(served, Server(bodies, backend="looped").compute(feats)):
        np.testing.assert_allclose(a, b, atol=1e-5)


def test_server_matches_float64_direct_forward():
    """The served pass — stacked, BN-folded, chunked and, on two workers,
    threaded at the shipped constants — against a per-body float64
    forward that shares no code with it."""
    preset = get_preset("small")
    config = preset.dataset("cifar10").model_config
    rng = new_rng(11)
    bodies = []
    for _ in range(preset.num_nets):
        body = ResNetBody(config, rng)
        for layer in body.modules():
            if isinstance(layer, nn.BatchNorm2d):  # statistics off their init
                c = layer.num_features
                layer.running_mean[...] = 0.2 * rng.standard_normal(c)
                layer.running_var[...] = rng.uniform(0.5, 2.0, c)
                layer.gamma.data[...] = rng.uniform(0.5, 1.5, c)
                layer.beta.data[...] = 0.2 * rng.standard_normal(c)
        bodies.append(body.eval())
    shape = (26,) + config.intermediate_shape(32)  # three chunks on this preset
    feats = rng.standard_normal(shape).astype(np.float32)
    with mock.patch.object(F, "kernel_workers", return_value=2), \
            mock.patch.object(F, "_helper_pool", wraps=F._helper_pool) as pool:
        served = Server(bodies).compute(feats)
    assert pool.call_count > 0  # some layers dispatched
    for body, out in zip(bodies, served):
        np.testing.assert_allclose(out, direct_resnet_body(body, feats), atol=1e-5)
