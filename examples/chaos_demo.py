"""Chaos replay: what serving a hostile network actually looks like.

The serving stack survives a faulted fleet by construction: CRC32 frame
checksums turn corruption into typed ``ProtocolError``s, client retries
with exponential backoff recover dropped frames under the same request
id (deduplicated server-side), crashed stacked passes re-queue their
riders, and an overload controller trades quality for capacity one
reversible step at a time.  This demo shows all of it on one deterministic
replay:

1. a fault-free bursty trace as the baseline;
2. the same trace over a seeded :class:`FaultInjector` — ~6% of frames
   corrupted/truncated/dropped, network delays, and a tick crash mid-run —
   with a :class:`RetryPolicy` recovering the losses;
3. a deliberate overload (a queue held at the high watermark) walking the
   degradation ladder up and back down.

Everything is seeded: run it twice and every corrupted frame, retry and
ladder transition lands on the same request.

Run:  python examples/chaos_demo.py
"""

import numpy as np

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.models import ResNetConfig
from repro.models.resnet import ResNet
from repro.serving import (
    FaultInjector,
    FaultPlan,
    InferenceService,
    OverloadPolicy,
    RetryPolicy,
    TickCost,
    bursty_trace,
    simulate,
)
from repro.utils.rng import new_rng

NUM_NETS = 4
NUM_SESSIONS = 4

PLAN = FaultPlan(corrupt_rate=0.025, truncate_rate=0.015, drop_rate=0.02,
                 delay_rate=0.15, delay_s=0.003, tick_failures_at=(3,))
RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.002, multiplier=2.0,
                    max_delay_s=0.05, jitter=0.1, timeout_s=0.06)
COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)


def build_service(faults=None, overload=None, max_queue=64):
    config = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(NUM_NETS)]
    for body in bodies:
        body.eval()
    service = InferenceService(Server(bodies), max_batch=4, max_queue=max_queue,
                               faults=faults, overload=overload, tick_retries=1)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(NUM_SESSIONS)]
    return service, sessions


def replay(faults=None, retry=None):
    service, sessions = build_service(faults=faults)
    trace = bursty_trace(num_sessions=NUM_SESSIONS, bursts=4, burst_size=8,
                         burst_gap_s=0.08)
    features = np.random.default_rng(0).random((1, 8, 8, 8), dtype=np.float32)
    report = simulate(service, sessions, trace, COST,
                      default_features=features, retry=retry)
    return service, report


def show(label, service, report):
    stats = service.stats
    print(f"{label}:")
    print(f"  served {report.served}/{report.submitted}, "
          f"p50 {report.p50_s * 1e3:.1f} ms, p95 {report.p95_s * 1e3:.1f} ms, "
          f"goodput {report.goodput_rps:.1f} req/s")
    print(f"  wire: {stats.corrupt_frames} corrupt, "
          f"{stats.dropped_frames} dropped; "
          f"{stats.tick_failures} crashed passes; "
          f"{report.retries} client retries, "
          f"{stats.deduped_requests} deduplicated")
    print(f"  terminal states: { {k: v for k, v in report.terminal_counts.items() if v} }"
          f"  (conserved: {report.conservation_ok})\n")


def overload_walk():
    """Hold the queue hot and watch the ladder climb, then recover."""
    policy = OverloadPolicy(high_watermark=0.5, low_watermark=0.15,
                            patience_ticks=1, min_ensemble_fraction=0.5)
    service, sessions = build_service(overload=policy, max_queue=8)
    features = np.random.default_rng(1).random((1, 8, 8, 8), dtype=np.float32)
    ladder = service.overload
    print("overload ladder (queue 8, high watermark 0.5):")
    for step in range(8):
        # Keep pressure on for the first half, then let the queue drain.
        if step < 4:
            for session in sessions:
                if service.pending < 8:
                    session.submit_features(features)
        service.tick()
        print(f"  tick {step}: pending {service.pending}, "
              f"level {ladder.level} ({ladder.level_name}), "
              f"degraded responses so far {service.stats.degraded_responses}")
    service.run_until_idle()
    for _ in range(3):
        service.tick()  # quiet observations walk the ladder back down
    print(f"  drained: level {ladder.level} ({ladder.level_name}), "
          f"{ladder.escalations} escalations / "
          f"{ladder.recoveries} recoveries\n")


def main() -> None:
    service, report = replay()
    show("fault-free baseline", service, report)

    faults = FaultInjector(PLAN, seed=7)
    service, report = replay(faults=faults, retry=RETRY)
    show(f"chaos ({PLAN.frame_fault_rate * 100:.0f}% frame faults + "
         f"delays + tick crash, seed 7)", service, report)
    print(f"  injector dealt: {faults.stats.as_dict()}\n")

    overload_walk()


if __name__ == "__main__":
    main()
