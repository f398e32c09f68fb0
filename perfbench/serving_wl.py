"""The ``interactive`` and ``bulk`` workloads: closed-loop Ensembler serving.

Each session is one edge device with its own client head and tail, its
own secret P-of-N selector, its own noise map and a privacy budget the
run cannot exhaust.  One round of the closed loop (zero think time):

1. every session encodes its upload (``Session.encode``) and frames it
   (``UploadRequest.to_bytes``);
2. the frames reach the service (``InferenceService.submit_bytes``,
   zero-copy decode) and ticks serve them (one stacked N-body pass per
   ``max_batch`` requests);
3. every response is framed (``FeatureResponse.to_bytes``), parsed
   client-side (``FeatureResponse.from_bytes``) and decided
   (``Client.decide`` — private selection plus tail).

A request's latency is its own client work (steps 1 and 3) plus the time
from its ``submit_bytes`` call to the end of the tick that served it.  On
real devices the other sessions' client work runs in parallel, so it is
not counted against this request.  Grouping never depends on timing: all
sessions submit before the service ticks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from harness import BlockMeter, Run, clock
from repro.ci import Server
from repro.core.selector import Selector
from repro.experiments.common import get_preset
from repro.models.resnet import ResNetBody, ResNetHead, ResNetTail
from repro.nn.profiling import FlopCounter
from repro.serving import FeatureResponse, InferenceService, UploadRequest
from repro.utils.rng import spawn_rng

#: a privacy budget no run can spend: every served query is still
#: charged (the accounting cost is measured), the ladder never engages
UNSPENDABLE = (2.0, 1e15, 10**15)
#: logits must match the looped reference within this (max |diff|)
TOLERANCE = 1e-5


@dataclasses.dataclass(frozen=True)
class Shape:
    """Traffic shape of one serving workload."""

    sessions: int
    images: int        # images per request
    image_hw: int      # square image side
    max_batch: int     # requests coalesced per tick
    check_every: int   # check every k-th request against the oracle
    pool: int          # distinct request payloads generated from the seed
    block_s: float     # throughput block length (measured seconds)


INTERACTIVE = Shape(sessions=8, images=1, image_hw=16, max_batch=8,
                    check_every=64, pool=64, block_s=0.5)
BULK = Shape(sessions=2, images=32, image_hw=32, max_batch=2,
             check_every=8, pool=8, block_s=1.0)


class Fixture:
    """Server, service, sessions and inputs of one serving workload."""

    def __init__(self, shape: Shape, seed: int):
        preset = get_preset("small")
        spec = preset.dataset("cifar10")
        config = spec.model_config
        rng = np.random.default_rng(seed)
        self.shape = shape
        self.num_nets = preset.num_nets
        self.bodies = [ResNetBody(config, spawn_rng(rng)).eval()
                       for _ in range(preset.num_nets)]
        self.server = Server(self.bodies)
        self.oracle = Server(self.bodies, backend="looped")
        self.service = InferenceService(
            self.server, max_batch=shape.max_batch,
            max_queue=4 * shape.sessions, scheduler="fifo", codec="fp32")
        noise_shape = config.intermediate_shape(shape.image_hw)
        self.sessions = []
        for index in range(shape.sessions):
            head = ResNetHead(config, spawn_rng(rng)).eval()
            tail = ResNetTail(config, spawn_rng(rng),
                              in_multiplier=spec.num_active).eval()
            selector = Selector.random(preset.num_nets, spec.num_active,
                                       spawn_rng(rng))
            self.sessions.append(self.service.open_session(
                head, tail, selector=selector,
                noise_seed=int(rng.integers(2**31)),
                noise_shape=noise_shape, noise_sigma=preset.sigma,
                privacy=UNSPENDABLE))
        self.inputs = rng.standard_normal(
            (shape.pool, shape.images, 3, shape.image_hw, shape.image_hw)
        ).astype(np.float32)
        self.round_index = 0
        self.warm_up()

    def warm_up(self, min_rounds: int = 3, max_rounds: int = 50) -> None:
        """Serve rounds until a whole round allocates no new arena buffer
        (the BN fold happened when the server was built)."""
        arena = self.service.arena
        for done in range(max_rounds):
            misses = arena.misses
            serve_round(self, Run(), None)
            if done + 1 >= min_rounds and arena.misses == misses:
                return
        raise RuntimeError("arena did not reach a steady state")


def serve_round(fx: Fixture, run: Run, probe, samples=None) -> float:
    """One closed-loop round; returns its wall time in seconds.

    ``probe`` (traced runs) receives per-request wire sizes and queue
    waits.  ``samples`` collects ``(session, features, logits)`` of the
    requests due for the oracle check.
    """
    shape = fx.shape
    service = fx.service
    start = clock()
    uploads = []
    for index, session in enumerate(fx.sessions):
        images = fx.inputs[(fx.round_index * shape.sessions + index)
                           % shape.pool]
        request_id = session.reserve_request_id()
        if probe is not None:
            probe.tracer.rid = (session.session_id, request_id)
        t0 = clock()
        features = session.encode(images)
        frame = UploadRequest(session.session_id, request_id,
                              features).to_bytes()
        uploads.append([session, request_id, features, frame, clock() - t0])
    fx.round_index += 1
    submitted = {}
    for upload in uploads:
        session, request_id, _, frame, _ = upload
        if probe is not None:
            probe.tracer.rid = (session.session_id, request_id)
        t0 = clock()
        service.submit_bytes(frame)
        submitted[(session.session_id, request_id)] = t0
        if probe is not None:
            probe.submit_end[(session.session_id, request_id)] = clock()
    served = {}
    if probe is not None:
        probe.tracer.rid = None
    for _ in range(len(uploads)):
        if not service.pending:
            break
        tick_start = clock()
        responses = service.tick()
        tick_end = clock()
        for response in responses:
            key = (response.session_id, response.request_id)
            served[key] = tick_end
            if probe is not None:
                probe.queue_waits.append(tick_start - probe.submit_end[key])
    for session, request_id, features, frame, client_s in uploads:
        run.attempted += 1
        key = (session.session_id, request_id)
        if key not in served:
            run.failed += 1
            continue
        if probe is not None:
            probe.tracer.rid = key
        try:
            t0 = clock()
            response = session.take_response(request_id)
            wire = response.to_bytes()
            parsed = FeatureResponse.from_bytes(wire)
            logits = session.client.decide(parsed.decoded())
            client_s += clock() - t0
        except Exception as exc:  # a mangled frame fails this request only
            run.failed += 1
            run.notes.append(f"request {key} failed: {exc!r}")
            continue
        run.latencies.append(client_s + served[key] - submitted[key])
        if probe is not None:
            probe.uplink.append(len(frame))
            probe.downlink.append(len(wire))
        if samples is not None and run.attempted % shape.check_every == 0:
            samples.append((session, features, logits))
    return clock() - start


def check(fx: Fixture, run: Run, samples, refused_before: int) -> None:
    """Compare sampled logits with the looped-backend oracle; responses
    the service degraded or refused since ``refused_before`` fail too."""
    worst = 0.0
    for session, features, logits in samples:
        expected = session.client.decide(fx.oracle.compute(features))
        diff = float(np.max(np.abs(expected - logits)))
        worst = max(worst, diff)
        if not diff <= TOLERANCE:
            run.failed += 1
    run.notes.append(f"oracle checks: {len(samples)} sampled requests, "
                     f"max |logit diff| {worst:.2e} (tolerance {TOLERANCE})")
    refused = refusals(fx) - refused_before
    if refused:
        run.failed += refused
        run.notes.append(f"service degraded or refused {refused} responses")


def refusals(fx: Fixture) -> int:
    stats = fx.service.stats
    return stats.degraded_responses + stats.privacy_refusals


class Probe:
    """Per-request facts a traced run collects in the workload loop."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.submit_end = {}
        self.queue_waits = []
        self.uplink = []
        self.downlink = []


def measure(fx: Fixture, seconds: float, tracer=None):
    """Serve closed-loop rounds for ``seconds`` of measured time."""
    run = Run()
    probe = Probe(tracer) if tracer is not None else None
    samples = []
    meter = BlockMeter(run, seconds, fx.shape.block_s)
    arena = fx.service.arena
    hits, misses = arena.hits, arena.misses
    ticks, served = fx.service.stats.ticks, fx.service.stats.served_requests
    refused = refusals(fx)
    while not meter.done:
        before = run.attempted
        elapsed = serve_round(fx, run, probe, samples)
        meter.add((run.attempted - before) * fx.shape.images, elapsed)
    meter.close()
    if tracer is not None:
        tracer.restore()  # the checks and counts below are not traced
    check(fx, run, samples, refused)
    if tracer is None:
        return run, {}
    stats = fx.service.stats
    reuse = arena.hits - hits + arena.misses - misses
    layers = {
        "wire.uplink_bytes_per_req": float(np.mean(probe.uplink)),
        "wire.downlink_bytes_per_req": float(np.mean(probe.downlink)),
        "service.queue_wait_ms": float(np.median(probe.queue_waits)) * 1e3,
        "service.requests_per_tick": ((stats.served_requests - served)
                                      / (stats.ticks - ticks)),
        "arena.hit_ratio": (arena.hits - hits) / reuse if reuse else 0.0,
        "arena.mib": arena.nbytes / 2**20,
    }
    batch = np.concatenate([fx.sessions[0].encode(x) for x in
                            fx.inputs[:fx.shape.max_batch]])
    with FlopCounter() as counter:
        fx.server.compute(batch)
    for kind in ("conv2d", "bias", "batch_norm"):
        layers[f"flops.{kind}_per_sample"] = (counter.by_kind.get(kind, 0)
                                              / batch.shape[0])
    return run, layers


def instrument(tracer, fx: Fixture) -> None:
    """Wrap the public calls on the serving path (traced runs only)."""
    from repro.ci import Client
    from repro.serving.session import Session

    tracer.wrap(Client, "encode", "ci.encode")
    tracer.wrap(Client, "decide", "ci.decide")
    tracer.wrap(UploadRequest, "to_bytes", "protocol.upload_to_bytes")
    tracer.wrap(FeatureResponse, "encode", "protocol.response_encode")
    tracer.wrap(FeatureResponse, "to_bytes", "protocol.response_to_bytes")
    tracer.wrap(FeatureResponse, "from_bytes",
                "protocol.response_from_bytes")
    tracer.wrap(InferenceService, "submit_bytes", "service.submit_bytes")
    tracer.wrap(InferenceService, "tick", "service.tick")
    tracer.wrap(Session, "charge_privacy", "privacy.charge")
    tracer.wrap(Server, "compute", "server.compute")
    instrument_batched(tracer)


def instrument_batched(tracer) -> None:
    """Wrap the stacked module kinds (self time per kind and pass)."""
    from repro.models.resnet import StackedBasicBlock
    from repro.nn import batched
    from repro.nn.tensor import Tensor

    tracer.wrap(batched.StackedConv2d, "forward", "batched.conv")
    tracer.wrap(batched.StackedBatchNorm2d, "forward", "batched.bn")
    tracer.wrap(Tensor, "relu", "batched.act")
    for pool in (batched.StackedMaxPool2d, batched.StackedAvgPool2d,
                 batched.StackedGlobalAvgPool2d):
        tracer.wrap(pool, "forward", "batched.pool")
    tracer.wrap(StackedBasicBlock, "forward", "batched.block")


class Serving:
    """The ``interactive`` or ``bulk`` workload: one traffic shape."""

    def __init__(self, shape: Shape):
        self.shape = shape

    def build(self, seed: int) -> Fixture:
        return Fixture(self.shape, seed)

    measure = staticmethod(measure)
    instrument = staticmethod(instrument)
