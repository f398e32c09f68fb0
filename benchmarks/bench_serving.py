"""E3 — sequential vs coalesced multi-tenant serving over the fused engine.

Times the serving plane of :class:`~repro.serving.service.InferenceService`
for S concurrent sessions, each uploading single-image requests against an
N-body Ensembler server:

* **sequential** — ``max_batch=1``: one stacked pass per request (the
  pre-serving behaviour of `EnsembleCIPipeline.infer` per client);
* **coalesced** — ``max_batch=S``: every tick merges the whole wave of
  concurrent uploads into one stacked pass along the batch axis.

Only the server plane is timed (requests carry pre-encoded features via
``submit_features``); client-side head/tail work is identical in both modes
and amortisation is a server-side property.

A second, **scheduler-comparison** mode (``run_scheduler_benchmark``)
exercises the pluggable-policy layer: simulated p95/p99 latency of
fifo vs fair-share vs weighted vs deadline scheduling on a bursty
arrival trace (virtual clock, deterministic), wall-clock fair-share vs
FIFO serving throughput on the same request wave, the per-tenant QoS
layer (contended 2:1 weighted shares plus simulated per-tenant tails on
a 2:1 offered trace), and fp32 vs fp16 vs int8 downlink bytes of the
negotiated wire codecs.

A fourth, **fleet-chaos** mode (``run_fleet_chaos_benchmark``) replays
one bursty trace twice over a 4-replica :class:`ServiceFleet` — fault
free, then with one replica crashed mid-trace — and records goodput,
failover blast radius (sessions migrated), duplicate serves (must be
zero) and fleet-wide request conservation.

A fifth, **privacy** mode (``run_privacy_benchmark``) measures the
:mod:`repro.privacy` tier on a *trained* tiny Ensembler deployment: how
useful a once-leaked secret subset stays against static vs per-query
rotating selectors (``subset_leak_ssim``), the inversion-SSIM curve as
the budget ladder raises noise, a budget-exhaustion replay (every served
query charged exactly once, submits past exhaustion refused with
``PrivacyExhaustedError``), the clean-accuracy cost of rotation, and one
§III-D brute-force sweep for the record.

Run as pytest (``pytest benchmarks/bench_serving.py -s``) or directly
(``python benchmarks/bench_serving.py``).  Either way each run writes its
records to ``build/bench-records/<benchmark>.json`` (gitignored).
``scripts/check_perf.py`` gates every record; the pytest entry asserts
the one bar the gates leave out (coalesced throughput ≥ 1.5x sequential
for 8 sessions at N=8 bodies, outputs ≤ 1e-5).
"""

import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow `python benchmarks/bench_serving.py`
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _bench_utils import ratio_text, time_arms, write_record  # noqa: E402
from bench_ensemble import WIDTH, build_bodies  # noqa: E402
from repro import nn  # noqa: E402
from repro.attacks import (  # noqa: E402
    AttackConfig,
    InversionAttack,
    brute_force_attack,
    subset_leak_ssim,
)
from repro.ci import Server  # noqa: E402
from repro.ci.pipeline import Client  # noqa: E402
from repro.core.selector import Selector  # noqa: E402
from repro.core.training import EnsemblerConfig, TrainingConfig  # noqa: E402
from repro.data.synthetic import cifar10_like  # noqa: E402
from repro.defenses import fit_ensembler  # noqa: E402
from repro.metrics import batch_ssim  # noqa: E402
from repro.privacy import PrivacyBudget, PrivacyPolicy  # noqa: E402
from repro.serving import (  # noqa: E402
    AdmissionController,
    AdmissionPolicy,
    Autoscaler,
    AutoscalePolicy,
    DeadlineScheduler,
    FaultInjector,
    FaultPlan,
    FleetPolicy,
    InferenceService,
    PrivacyExhaustedError,
    ReplicaFault,
    RetryPolicy,
    ServiceFleet,
    TickCost,
    bursty_trace,
    diurnal_trace,
    simulate,
    simulate_fleet,
)
from repro.utils.rng import new_rng  # noqa: E402

NUM_NETS = 8
SESSION_COUNTS = (4, 8)
REQUEST_BATCH = 1  # single-image interactive requests, the serving regime
SPATIAL = 8
#: counted rounds of each wall-clock comparison (each wave < 70 ms).
ROUNDS = 9


def _make_service(bodies, max_batch: int, num_sessions: int):
    """A service plus ``num_sessions`` protocol-only tenants.

    Identity heads/tails keep the measurement on the serving plane; the
    wire protocol (framing, per-session accounting, split/route) runs in
    full either way.
    """
    service = InferenceService(Server(bodies), max_batch=max_batch,
                               max_queue=4 * num_sessions)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(num_sessions)]
    return service, sessions


def _serve_wave(service, sessions, features) -> list:
    """All sessions upload one request, then the service drains the queue."""
    request_ids = [session.submit_features(features) for session in sessions]
    service.run_until_idle()
    return [session.take_response(rid).outputs
            for session, rid in zip(sessions, request_ids)]


def run_benchmark() -> dict:
    """Time sequential vs coalesced serving and return the JSON record."""
    rng = np.random.default_rng(0)
    features = rng.random((REQUEST_BATCH, WIDTH, SPATIAL, SPATIAL),
                          dtype=np.float32)
    bodies = build_bodies(NUM_NETS)
    results = []
    for num_sessions in SESSION_COUNTS:
        sequential, seq_sessions = _make_service(bodies, 1, num_sessions)
        coalesced, coal_sessions = _make_service(bodies, num_sessions,
                                                 num_sessions)

        seq_out = _serve_wave(sequential, seq_sessions, features)
        coal_out = _serve_wave(coalesced, coal_sessions, features)
        max_abs_diff = max(
            float(np.abs(c - s).max())
            for c_outs, s_outs in zip(coal_out, seq_out)
            for c, s in zip(c_outs, s_outs))

        timing = time_arms(
            {"sequential": lambda: _serve_wave(sequential, seq_sessions,
                                               features),
             "coalesced": lambda: _serve_wave(coalesced, coal_sessions,
                                              features)},
            {"throughput_ratio": ("sequential", "coalesced")}, ROUNDS)
        results.append({
            "num_sessions": num_sessions,
            **timing,
            "sequential_rps": num_sessions / timing["sequential_s"],
            "coalesced_rps": num_sessions / timing["coalesced_s"],
            "max_abs_diff": max_abs_diff,
        })
    return {
        "benchmark": "serving_coalesced_vs_sequential",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_nets": NUM_NETS,
        "request_batch": REQUEST_BATCH,
        "width": WIDTH,
        "spatial": SPATIAL,
        "body_topology": "resnet10-style (4 stages, 1 block each)",
        "results": results,
    }


def _make_policy_service(bodies, scheduler, num_sessions, max_batch=4,
                         codec="fp32", weights=None):
    service = InferenceService(Server(bodies), max_batch=max_batch,
                               max_queue=64, scheduler=scheduler, codec=codec)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()),
                                      weight=(weights[i] if weights else 1.0))
                for i in range(num_sessions)]
    return service, sessions


def _simulated_tail_latency(bodies, features, num_sessions) -> list[dict]:
    """Virtual-clock p50/p95/p99 of each policy on one bursty trace."""
    cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
    trace = bursty_trace(num_sessions=num_sessions, bursts=3, burst_size=16,
                         burst_gap_s=0.08, deadline_s=0.04)
    policies = {
        "fifo": "fifo",
        "fair": "fair",
        "weighted": "weighted",  # equal weights here: the fair baseline
        "deadline": DeadlineScheduler(pass_overhead_s=cost.pass_overhead_s,
                                      sample_cost_s=cost.per_sample_s,
                                      max_group_samples=16),
    }
    rows = []
    for name, policy in policies.items():
        service, sessions = _make_policy_service(bodies, policy, num_sessions)
        report = simulate(service, sessions, trace, cost,
                          default_features=features)
        rows.append({
            "scheduler": name,
            "p50_ms": report.p50_s * 1e3,
            "p95_ms": report.p95_s * 1e3,
            "p99_ms": report.p99_s * 1e3,
            "slo_violations": report.violations,
            "ticks": report.ticks,
            "served": report.served,
        })
    return rows


def _wall_clock_throughput(bodies, features) -> dict:
    """Real serve time of the same wave under FIFO vs fair-share."""
    def serve(scheduler):
        service, sessions = _make_policy_service(bodies, scheduler,
                                                 SCHEDULER_SESSIONS)

        def wave():
            for _ in range(SCHEDULER_REQUESTS_PER_SESSION):
                for session in sessions:
                    session.submit_features(features)
            service.run_until_idle()
            for session in sessions:
                session.discard_results()
        return wave

    return time_arms({"fifo": serve("fifo"), "fair": serve("fair")},
                     {"fair_vs_fifo": ("fifo", "fair")}, ROUNDS)


def _weighted_shares(bodies, features, weight_ratio=2.0,
                     requests_per_session=24, max_batch=3) -> dict:
    """Per-tenant QoS: contended weighted shares + simulated tails.

    Two measurements of the same 2:1 policy.  First, *deterministic
    service shares*: both tenants flood the queue and we count stacked
    samples served to each while both still have backlog — deficit
    round-robin should split them ``weight_ratio``:1.  Second, *simulated
    per-tenant tails*: a virtual-clock replay of a 2:1 offered bursty
    trace reports each tenant's own p50/p95, the view a paying tier
    actually buys.
    """
    service, (heavy, light) = _make_policy_service(
        bodies, "weighted", 2, max_batch=max_batch,
        weights=(weight_ratio, 1.0))
    for _ in range(requests_per_session):
        heavy.submit_features(features)
        light.submit_features(features)
    served = {heavy.session_id: 0, light.session_id: 0}
    while heavy.outstanding and light.outstanding:
        for response in service.tick():
            served[response.session_id] += response.outputs[0].shape[0]
    service.run_until_idle()
    for session in (heavy, light):
        session.discard_results()
    share_ratio = served[heavy.session_id] / max(served[light.session_id], 1)

    cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
    trace = bursty_trace(num_sessions=2, bursts=3, burst_size=12,
                         burst_gap_s=0.08,
                         session_weights=(weight_ratio, 1.0))
    sim_service, sim_sessions = _make_policy_service(
        bodies, "weighted", 2, max_batch=max_batch,
        weights=(weight_ratio, 1.0))
    report = simulate(sim_service, sim_sessions, trace, cost,
                      default_features=features)
    sim_heavy, sim_light = (s.session_id for s in sim_sessions)
    return {
        "weight_ratio": weight_ratio,
        "hierarchical": _hierarchical_shares(bodies, features,
                                             max_batch=max_batch),
        "heavy_samples": served[heavy.session_id],
        "light_samples": served[light.session_id],
        "share_ratio": share_ratio,
        "share_error": abs(share_ratio - weight_ratio) / weight_ratio,
        "simulated": {
            "heavy_p50_ms": report.session_percentile(sim_heavy, 50) * 1e3,
            "heavy_p95_ms": report.session_percentile(sim_heavy, 95) * 1e3,
            "light_p50_ms": report.session_percentile(sim_light, 50) * 1e3,
            "light_p95_ms": report.session_percentile(sim_light, 95) * 1e3,
        },
    }


def _hierarchical_shares(bodies, features, requests_per_session=20,
                         max_batch=3) -> dict:
    """Hierarchical QoS: a rate class's aggregate share is fixed.

    Two unit-weight members share a weight-2 class against a weight-2
    outsider; while all three are backlogged the class as a whole should
    match the outsider sample-for-sample, and the members should split
    the class's half equally — one organisation-level share, subdivided
    internally, instead of each sub-tenant buying fleet-wide weight.
    """
    service, (m1, m2, outsider) = _make_policy_service(
        bodies, "weighted", 3, max_batch=max_batch, weights=(1.0, 1.0, 2.0))
    service.scheduler.set_rate_class(m1.session_id, "org", class_weight=2.0)
    service.scheduler.set_rate_class(m2.session_id, "org")
    for _ in range(requests_per_session):
        m1.submit_features(features)
        m2.submit_features(features)
        outsider.submit_features(features)
    served = {s.session_id: 0 for s in (m1, m2, outsider)}
    while m1.outstanding and m2.outstanding and outsider.outstanding:
        for response in service.tick():
            served[response.session_id] += response.outputs[0].shape[0]
    service.run_until_idle()
    for session in (m1, m2, outsider):
        session.discard_results()
    class_samples = served[m1.session_id] + served[m2.session_id]
    outsider_samples = served[outsider.session_id]
    aggregate_ratio = class_samples / max(outsider_samples, 1)
    member_ratio = served[m1.session_id] / max(served[m2.session_id], 1)
    return {
        "class_weight": 2.0,
        "outsider_weight": 2.0,
        "member_samples": [served[m1.session_id], served[m2.session_id]],
        "outsider_samples": outsider_samples,
        "aggregate_ratio": aggregate_ratio,
        "aggregate_error": abs(aggregate_ratio - 1.0),
        "member_split_ratio": member_ratio,
        "member_split_error": abs(member_ratio - 1.0),
    }


def _codec_downlink(bodies, features, num_sessions) -> dict:
    """Downlink bytes and output drift of fp16/int8 vs fp32 sessions.

    Measured on multi-image requests: narrowing shrinks the *payload* of
    each framed feature map (2x for fp16, 4x for int8), so the reduction
    approaches the dtype ratio as payloads dominate the fixed 64-byte
    per-array frame headers (single-image maps of tiny benchmark bodies
    are header-bound and would understate it).  Int8 quantisation
    parameters ride inside the fixed headers, so they cost zero extra
    wire bytes.
    """
    def serve(codec):
        service, sessions = _make_policy_service(bodies, "fifo", num_sessions,
                                                 codec=codec)
        request_ids = [s.submit_features(features) for s in sessions]
        service.run_until_idle()
        outputs = [s.take_response(rid).decoded()
                   for s, rid in zip(sessions, request_ids)]
        downlink = sum(s.stats.downlink_bytes for s in sessions)
        return downlink, outputs

    def drift(narrow_out, fp32_out):
        return max(float(np.abs(a - b).max())
                   for outs_n, outs32 in zip(narrow_out, fp32_out)
                   for a, b in zip(outs_n, outs32))

    fp32_bytes, fp32_out = serve("fp32")
    fp16_bytes, fp16_out = serve("fp16")
    int8_bytes, int8_out = serve("int8")
    # Affine per-map quantisation promises error <= (max - min) / 510 per
    # map; the widest *output* map (not the [0, 1) inputs) sets the bound.
    int8_bound = max(float(arr.max() - arr.min()) / 510.0
                     for outs in fp32_out for arr in outs)
    return {
        "fp32_downlink_bytes": fp32_bytes,
        "fp16_downlink_bytes": fp16_bytes,
        "int8_downlink_bytes": int8_bytes,
        "downlink_reduction": fp32_bytes / fp16_bytes,
        "int8_downlink_reduction": fp32_bytes / int8_bytes,
        "max_abs_diff": drift(fp16_out, fp32_out),
        "int8_max_abs_diff": drift(int8_out, fp32_out),
        "int8_drift_bound": int8_bound,
    }


CHAOS_PLAN = FaultPlan(corrupt_rate=0.02, truncate_rate=0.015,
                       drop_rate=0.015, delay_rate=0.1, delay_s=0.002,
                       tick_failures_at=(2,))
CHAOS_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.002,
                          multiplier=2.0, max_delay_s=0.05, jitter=0.1,
                          timeout_s=0.06)


def _chaos_replay(bodies, features, num_sessions, faults=None) -> dict:
    """One bursty replay; with ``faults`` the wire and the ticks misbehave."""
    service, sessions = _make_policy_service(bodies, "fifo", num_sessions)
    service.faults = faults
    cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
    trace = bursty_trace(num_sessions=num_sessions, bursts=4, burst_size=12,
                         burst_gap_s=0.08)
    report = simulate(service, sessions, trace, cost,
                      default_features=features,
                      retry=CHAOS_RETRY if faults is not None else None)
    return {
        "submitted": report.submitted,
        "served": report.served,
        "goodput_rps": report.goodput_rps,
        "p95_ms": report.p95_s * 1e3,
        "makespan_ms": report.makespan_s * 1e3,
        "retries": report.retries,
        "tick_failures": report.tick_failures,
        "terminal_counts": report.terminal_counts,
        "conservation_ok": report.conservation_ok,
        "fault_stats": faults.stats.as_dict() if faults is not None else None,
    }


CHAOS_SESSIONS = 8
CHAOS_SEED = 0


def run_chaos_benchmark() -> dict:
    """Resilience record: goodput under ~5% frame faults plus one injected
    mid-run tick crash, against the fault-free baseline of the same trace."""
    rng = np.random.default_rng(2)
    features = rng.random((REQUEST_BATCH, WIDTH, SPATIAL, SPATIAL),
                          dtype=np.float32)
    bodies = build_bodies(NUM_NETS)
    baseline = _chaos_replay(bodies, features, CHAOS_SESSIONS)
    chaos = _chaos_replay(bodies, features, CHAOS_SESSIONS,
                          faults=FaultInjector(CHAOS_PLAN, seed=CHAOS_SEED))
    return {
        "benchmark": "serving_chaos",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_nets": NUM_NETS,
        "num_sessions": CHAOS_SESSIONS,
        "width": WIDTH,
        "spatial": SPATIAL,
        "seed": CHAOS_SEED,
        "frame_fault_rate": CHAOS_PLAN.frame_fault_rate,
        "baseline": baseline,
        "chaos": chaos,
        "goodput_ratio": (chaos["goodput_rps"] / baseline["goodput_rps"]
                          if baseline["goodput_rps"] > 0 else 0.0),
    }


def print_chaos_record(record: dict) -> None:
    base, chaos = record["baseline"], record["chaos"]
    print(f"\nchaos replay (N={record['num_nets']} bodies, "
          f"S={record['num_sessions']} sessions, "
          f"{record['frame_fault_rate'] * 100:.0f}% frame faults + "
          f"tick crash, seed {record['seed']})")
    print(f"{'':>10}  {'served':>6}  {'goodput [r/s]':>13}  {'p95 [ms]':>9}  "
          f"{'retries':>7}  {'conserved':>9}")
    for name, row in (("baseline", base), ("chaos", chaos)):
        print(f"{name:>10}  {row['served']:>6}  {row['goodput_rps']:>13.1f}  "
              f"{row['p95_ms']:>9.1f}  {row['retries']:>7}  "
              f"{str(row['conservation_ok']):>9}")
    print(f"goodput under faults: {record['goodput_ratio']:.2f}x fault-free; "
          f"terminal states {chaos['terminal_counts']}")


FLEET_REPLICAS = 4
FLEET_SESSIONS = 16
FLEET_KILL_AT = 0.24  # mid-trace: bursts land at 0.00/0.08/.../0.40
FLEET_KILL_REPLICA = 3
FLEET_RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.004, multiplier=2.0,
                          max_delay_s=0.05, jitter=0.1, timeout_s=0.06)
FLEET_COST = TickCost(pass_overhead_s=0.004, per_sample_s=0.0005,
                      per_request_downlink_s=0.0002)
FLEET_POLICY = FleetPolicy(heartbeat_interval_s=0.01, suspect_after_s=0.025,
                           down_after_s=0.05, checkpoint_interval_s=0.02)


def _fleet_replay(bodies, features, kill_replica=None) -> dict:
    """One bursty replay over a replicated fleet; optionally kill a
    replica mid-trace and fail its sessions over."""
    plan = FaultPlan(replica_faults=(
        (ReplicaFault(replica=kill_replica, at_s=FLEET_KILL_AT),)
        if kill_replica is not None else ()))
    replicas = [InferenceService(Server(bodies), max_batch=4,
                                 max_queue=4 * FLEET_SESSIONS)
                for _ in range(FLEET_REPLICAS)]
    fleet = ServiceFleet(replicas, policy=FLEET_POLICY,
                         faults=FaultInjector(plan, seed=0))
    sessions = [fleet.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(FLEET_SESSIONS)]
    trace = bursty_trace(num_sessions=FLEET_SESSIONS, bursts=6,
                         burst_size=FLEET_SESSIONS, burst_gap_s=0.08)
    report = simulate_fleet(fleet, sessions, trace, FLEET_COST,
                            default_features=features, retry=FLEET_RETRY)
    live = len(sessions)
    return {
        "submitted": report.submitted,
        "served": report.served,
        "goodput_rps": report.goodput_rps,
        "p95_ms": report.p95_s * 1e3,
        "makespan_ms": report.makespan_s * 1e3,
        "retries": report.retries,
        "ticks_by_replica": {str(k): v
                             for k, v in sorted(report.ticks_by_replica.items())},
        "terminal_counts": report.terminal_counts,
        "conservation_ok": report.conservation_ok,
        "duplicate_serves": report.duplicate_serves,
        "failovers": report.failovers,
        "lost_submits": report.lost_submits,
        "migrated_sessions": report.migrated_sessions,
        "migrated_fraction": report.migrated_sessions / live,
        "health_log": [(round(t, 4), rid, state)
                       for t, rid, state in report.health_log],
        "goodput_before_kill_rps": report.goodput_between(0.0, FLEET_KILL_AT),
        "goodput_after_kill_rps": report.goodput_between(
            FLEET_KILL_AT, max(report.makespan_s, FLEET_KILL_AT + 1e-9)),
        "fleet_stats": fleet.fleet_stats.as_dict(),
    }


def run_fleet_chaos_benchmark() -> dict:
    """Fleet resilience record: the same bursty trace replayed twice over
    a 4-replica fleet — fault-free, then with one replica crashed
    mid-trace (detected by heartbeat silence, sessions failed over from
    checkpoints, in-flight requests recovered by retry timeouts)."""
    rng = np.random.default_rng(3)
    features = rng.random((REQUEST_BATCH, WIDTH, SPATIAL, SPATIAL),
                          dtype=np.float32)
    bodies = build_bodies(NUM_NETS)
    baseline = _fleet_replay(bodies, features)
    chaos = _fleet_replay(bodies, features, kill_replica=FLEET_KILL_REPLICA)
    return {
        "benchmark": "fleet_chaos",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_nets": NUM_NETS,
        "num_replicas": FLEET_REPLICAS,
        "num_sessions": FLEET_SESSIONS,
        "width": WIDTH,
        "spatial": SPATIAL,
        "killed_replica": FLEET_KILL_REPLICA,
        "kill_at_s": FLEET_KILL_AT,
        "baseline": baseline,
        "chaos": chaos,
        "goodput_ratio": (chaos["goodput_rps"] / baseline["goodput_rps"]
                          if baseline["goodput_rps"] > 0 else 0.0),
    }


def print_fleet_chaos_record(record: dict) -> None:
    base, chaos = record["baseline"], record["chaos"]
    print(f"\nfleet chaos replay (R={record['num_replicas']} replicas, "
          f"S={record['num_sessions']} sessions, replica "
          f"{record['killed_replica']} killed at t={record['kill_at_s']}s)")
    print(f"{'':>10}  {'served':>6}  {'goodput [r/s]':>13}  {'p95 [ms]':>9}  "
          f"{'retries':>7}  {'dups':>4}  {'conserved':>9}")
    for name, row in (("baseline", base), ("chaos", chaos)):
        print(f"{name:>10}  {row['served']:>6}  {row['goodput_rps']:>13.1f}  "
              f"{row['p95_ms']:>9.1f}  {row['retries']:>7}  "
              f"{row['duplicate_serves']:>4}  "
              f"{str(row['conservation_ok']):>9}")
    timeline = ", ".join(f"t={t:.2f}s r{rid}:{state}"
                         for t, rid, state in chaos["health_log"]
                         if state != "healthy")
    print(f"health timeline: {timeline or 'no transitions'}")
    print(f"failover moved {chaos['migrated_sessions']}/"
          f"{record['num_sessions']} sessions "
          f"({chaos['migrated_fraction'] * 100:.0f}%); goodput "
          f"{record['goodput_ratio']:.2f}x fault-free "
          f"(after-kill {chaos['goodput_after_kill_rps']:.0f} r/s vs "
          f"before-kill {chaos['goodput_before_kill_rps']:.0f} r/s)")


# -- fleet-scale traffic engine (PR 9) ----------------------------------
#
# 10^4 sessions streamed lazily through a diurnal arrival trace; the
# static 2-replica fleet saturates at the diurnal peak (per-replica
# service rate ~100 req/s vs a ~240 req/s peak), the autoscaled fleet
# spawns capacity into the peak and drains it back out.  Identity bodies:
# this mode measures the serving plane (scheduling, elasticity,
# admission), not the stacked forward.

FLEET_SCALE_SESSIONS = 10_000
FLEET_SCALE_REQUESTS = 15_000
FLEET_SCALE_PRIVACY_SESSIONS = 200  # metered tenants riding the trace
FLEET_SCALE_BASE_HZ = 30.0
FLEET_SCALE_PERIOD_S = 40.0
FLEET_SCALE_PEAK_FACTOR = 8.0
FLEET_SCALE_COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.008,
                            per_request_downlink_s=0.0005)
FLEET_SCALE_POLICY = FleetPolicy(heartbeat_interval_s=0.5,
                                 suspect_after_s=2.0, down_after_s=4.0,
                                 checkpoint_interval_s=30.0)
FLEET_SCALE_AUTOSCALE = AutoscalePolicy(
    min_replicas=2, max_replicas=6, scale_up_pressure=0.5,
    scale_down_pressure=0.1, smoothing=0.4, patience=2, cooldown_s=2.0,
    check_interval_s=0.25)
FLEET_SCALE_ADMISSION = AdmissionPolicy(downgrade_pressure=0.7,
                                        reject_pressure=0.95)


def _scale_replica():
    return InferenceService(Server([nn.Identity(), nn.Identity()]),
                            max_batch=8, max_queue=96, scheduler="fifo")


def _fleet_scale_replay(features, autoscale: bool) -> dict:
    """One lazy diurnal replay; optionally elastic (2 → ≤ 6 replicas)."""
    fleet = ServiceFleet([_scale_replica(), _scale_replica()],
                         policy=FLEET_SCALE_POLICY)
    sessions = [
        fleet.adopt_session(
            Client(nn.Identity(), nn.Identity()), rate_limit=None,
            privacy=((2.0, 1e6, 10**6)
                     if i < FLEET_SCALE_PRIVACY_SESSIONS else None))
        for i in range(FLEET_SCALE_SESSIONS)]
    trace = diurnal_trace(FLEET_SCALE_SESSIONS, FLEET_SCALE_REQUESTS,
                          FLEET_SCALE_BASE_HZ,
                          period_s=FLEET_SCALE_PERIOD_S,
                          peak_factor=FLEET_SCALE_PEAK_FACTOR, seed=17)
    autoscaler = (Autoscaler(fleet, FLEET_SCALE_AUTOSCALE,
                             replica_factory=_scale_replica)
                  if autoscale else None)
    admission = AdmissionController(FLEET_SCALE_ADMISSION)
    start = time.perf_counter()
    report = simulate_fleet(fleet, sessions, trace, FLEET_SCALE_COST,
                            default_features=features,
                            autoscaler=autoscaler, admission=admission)
    wall_s = time.perf_counter() - start
    return {
        "submitted": report.submitted,
        "served": report.served,
        "goodput_rps": report.goodput_rps,
        "p50_ms": report.p50_s * 1e3,
        "p95_ms": report.p95_s * 1e3,
        "p99_ms": report.p99_s * 1e3,
        "makespan_s": report.makespan_s,
        "conservation_ok": report.conservation_ok,
        "duplicate_serves": report.duplicate_serves,
        "spawns": report.spawns,
        "drains": report.drains_scaled,
        "replicas_final": report.replicas_final,
        "migrations": len(report.migration_epsilon_log),
        "epsilon_ratchet_ok": report.epsilon_ratchet_ok,
        "admission_rejected": report.admission_rejected,
        "admission_downgraded": report.admission_downgraded,
        "arrivals_rejected": report.arrivals_rejected,
        "autoscale_log": [(round(t, 3), action, rid, round(pressure, 3))
                          for t, action, rid, pressure
                          in report.autoscale_log],
        "exact_latencies_retained": len(report.latencies_s),
        "wall_s": wall_s,
    }


def run_fleet_scale_benchmark() -> dict:
    """Fleet-scale record: the same 10^4-session / 15k-request diurnal
    stream replayed over a static 2-replica fleet and an autoscaled
    (2 → ≤ 6) fleet, both behind the same admission controller.  The
    trace is a generator — reports stay sketch-backed (O(sessions · k)
    memory, exact per-request lists never materialise)."""
    rng = np.random.default_rng(9)
    features = rng.random((REQUEST_BATCH, 8, 4, 4), dtype=np.float32)
    static = _fleet_scale_replay(features, autoscale=False)
    autoscaled = _fleet_scale_replay(features, autoscale=True)
    return {
        "benchmark": "fleet_scale",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_sessions": FLEET_SCALE_SESSIONS,
        "num_requests": FLEET_SCALE_REQUESTS,
        "privacy_sessions": FLEET_SCALE_PRIVACY_SESSIONS,
        "base_rate_hz": FLEET_SCALE_BASE_HZ,
        "period_s": FLEET_SCALE_PERIOD_S,
        "peak_factor": FLEET_SCALE_PEAK_FACTOR,
        "static": static,
        "autoscaled": autoscaled,
        "goodput_ratio": (autoscaled["goodput_rps"] / static["goodput_rps"]
                          if static["goodput_rps"] > 0 else 0.0),
        "p99_ratio": (autoscaled["p99_ms"] / static["p99_ms"]
                      if static["p99_ms"] > 0 else 0.0),
    }


def print_fleet_scale_record(record: dict) -> None:
    print(f"\nfleet-scale diurnal stream (S={record['num_sessions']} "
          f"sessions, {record['num_requests']} requests, "
          f"base {record['base_rate_hz']:.0f} Hz x "
          f"{record['peak_factor']:.0f} peak, "
          f"{record['privacy_sessions']} metered tenants)")
    print(f"{'':>10}  {'served':>6}  {'goodput [r/s]':>13}  {'p50 [ms]':>9}  "
          f"{'p99 [ms]':>9}  {'replicas':>8}  {'rejected':>8}  {'wall [s]':>8}")
    for name in ("static", "autoscaled"):
        row = record[name]
        print(f"{name:>10}  {row['served']:>6}  {row['goodput_rps']:>13.1f}  "
              f"{row['p50_ms']:>9.1f}  {row['p99_ms']:>9.1f}  "
              f"{row['replicas_final']:>8}  {row['admission_rejected']:>8}  "
              f"{row['wall_s']:>8.1f}")
    auto = record["autoscaled"]
    timeline = ", ".join(f"t={t:.0f}s {action} r{rid} (p={p:.2f})"
                         for t, action, rid, p in auto["autoscale_log"])
    print(f"autoscale timeline: {timeline or 'no actions'}")
    print(f"autoscaled vs static: goodput {record['goodput_ratio']:.2f}x, "
          f"p99 {record['p99_ratio']:.2f}x; {auto['migrations']} live "
          f"migrations, epsilon ratchet "
          f"{'ok' if auto['epsilon_ratchet_ok'] else 'VIOLATED'}")


PRIVACY_NUM_NETS = 6
PRIVACY_SUBSET_SIZE = 2
PRIVACY_QUERIES = 12
PRIVACY_Q_BUDGET = 6
PRIVACY_ALPHA = 2.0
PRIVACY_EPS = 1000.0  # loose: the query budget is the binding one
PRIVACY_SIGMA = 0.1


def _build_privacy_fixture():
    """A *trained* tiny Ensembler deployment (stages 1-3) plus its data.

    Unlike the protocol-plane fixtures above, the privacy benchmark needs
    real model halves: the subset-leak score reads actual downlink feature
    maps, the ladder part inverts real uploads and the accuracy delta runs
    the trained tail over rotated subsets.
    """
    from repro.models.resnet import ResNetConfig

    model = ResNetConfig(num_classes=4, stem_channels=8,
                         stage_channels=(8, 16), blocks_per_stage=(1, 1),
                         use_maxpool=True)
    config = EnsemblerConfig(
        num_nets=PRIVACY_NUM_NETS, num_active=PRIVACY_SUBSET_SIZE,
        sigma=PRIVACY_SIGMA,
        stage1=TrainingConfig(epochs=1, batch_size=16, lr=0.05),
        stage3=TrainingConfig(epochs=1, batch_size=16, lr=0.05))
    bundle = cifar10_like(size=16, train_per_class=8, test_per_class=8,
                          num_classes=4, rng=new_rng(4))
    defense = fit_ensembler(bundle, model, config=config, rng=new_rng(4))
    return defense, bundle


def _privacy_session(defense, privacy=None, rotation=None):
    """One fresh single-tenant service over the trained deployment.

    Each call clones the secret selector so a rotating session never
    mutates the fitted defense's own selector (rotation re-draws the
    client's subset in place).
    """
    service = InferenceService(Server(list(defense.bodies)), max_batch=1,
                               max_queue=4 * PRIVACY_QUERIES)
    client = Client(defense.head, defense.tail, noise=defense.noise,
                    selector=Selector(defense.selector.num_nets,
                                      defense.selector.indices))
    session = service.adopt_session(client, privacy=privacy,
                                    rotation=rotation)
    return service, session


def _serve_captured(service, session, queries):
    """Serve one request per wave, capturing what the adversary sees.

    Returns the per-query raw downlinks (all N feature maps) and a
    snapshot of the selector in force when each query was delivered.
    """
    responses, selectors = [], []
    for images in queries:
        request_id = session.submit(images)
        service.run_until_idle()
        response = session.take_response(request_id)
        responses.append([np.asarray(arr, dtype=np.float64)
                          for arr in response.decoded()])
        selectors.append(Selector(session.selector.num_nets,
                                  session.selector.indices))
    return responses, selectors


def _subset_leak_comparison(defense, bundle) -> dict:
    """Static vs per-query-rotating usefulness of a once-leaked subset.

    The adversary is granted the strongest §III-D outcome — the exact
    secret subset at session open — and decodes every later downlink with
    it.  Against a static selector that stale knowledge stays perfect
    (SSIM 1.0 per query); per-query rotation re-draws the secret, so the
    leaked subset aligns only on the overlapping channels.
    """
    queries = [bundle.test.images[i:i + 1] for i in range(PRIVACY_QUERIES)]
    rows = {}
    for mode, rotation in (("static", None), ("rotating", "per_query")):
        service, session = _privacy_session(defense, rotation=rotation)
        leaked = Selector(session.selector.num_nets, session.selector.indices)
        responses, selectors = _serve_captured(service, session, queries)
        rows[mode] = {
            "ssim_vs_leaked": subset_leak_ssim(responses, selectors, leaked),
            "mean_overlap": float(np.mean([leaked.overlap(s)
                                           for s in selectors])),
            "rotations": service.stats.selector_rotations,
        }
    return rows


def _ladder_attack_curve(defense, bundle, attack) -> list[dict]:
    """Inversion SSIM of the uplink as the budget ladder engages.

    One single-net decoder is trained at the deployment's base noise;
    the same decoder then inverts uploads encoded at increasing budget
    depletion.  Past ``raise_noise_at`` the client adds independent
    extra noise, so reconstruction quality degrades as ε drains — the
    "SSIM vs queries spent" view of graceful degradation.
    """
    artifacts = attack.attack_single(defense.bodies[0])
    probe = bundle.test.images[:8]
    budget = PrivacyBudget(PrivacyPolicy(PRIVACY_ALPHA, PRIVACY_EPS,
                                         PRIVACY_Q_BUDGET),
                           base_sigma=PRIVACY_SIGMA, noise_boost=2.0)
    _, session = _privacy_session(defense, privacy=budget)
    curve = []
    for fraction in (0.0, 0.6, 0.9):
        budget.accountant.spent = fraction * PRIVACY_EPS
        features = session.encode(probe)
        recon = artifacts.reconstruct(features)
        curve.append({
            "fraction_spent": fraction,
            "level": budget.level_name,
            "extra_sigma": budget.extra_sigma(PRIVACY_SIGMA),
            "ssim": batch_ssim(probe.astype(np.float64),
                               recon.astype(np.float64)),
        })
    return curve


def _exhaustion_replay(defense, bundle) -> dict:
    """Drive one metered session through its whole budget and past it.

    Every served query must be charged exactly once; once ``q_budget``
    queries are charged, every further submit must raise the typed
    :class:`~repro.serving.errors.PrivacyExhaustedError` — never be
    silently served.  The per-query trace records the ladder walking
    normal -> raise-noise -> shrink-map before the terminal refusal.
    """
    budget = PrivacyBudget(PrivacyPolicy(PRIVACY_ALPHA, PRIVACY_EPS,
                                         PRIVACY_Q_BUDGET),
                           base_sigma=PRIVACY_SIGMA)
    service, session = _privacy_session(defense, privacy=budget,
                                        rotation="per_query")
    images = bundle.test.images
    served = refused = 0
    trace = []
    for i in range(PRIVACY_QUERIES):
        query = images[i % len(images):i % len(images) + 1]
        try:
            request_id = session.submit(query)
        except PrivacyExhaustedError:
            refused += 1
            continue
        service.run_until_idle()
        if session.take_response(request_id) is not None:
            served += 1
            trace.append({"query": i, "level": session.privacy.level_name,
                          "fraction_spent": session.privacy.fraction_spent})
    stats = service.stats
    return {
        "q_budget": PRIVACY_Q_BUDGET,
        "submitted": PRIVACY_QUERIES,
        "served": served,
        "refused": refused,
        "charged": stats.privacy_charged_queries,
        "refusals_counted": stats.privacy_refusals,
        "exhausted_sessions": stats.privacy_exhausted_sessions,
        "eps_spent": session.privacy.spent,
        "final_level": session.privacy.level_name,
        "ladder_trace": trace,
        "conservation_ok": (served == stats.privacy_charged_queries
                            and served == PRIVACY_Q_BUDGET
                            and served + refused == PRIVACY_QUERIES),
    }


def _rotation_accuracy(defense, bundle) -> dict:
    """Clean-task accuracy through the served pipeline, static vs rotating.

    Both runs serve the same test batches over the wire; the delta is the
    utility price of re-drawing the subset the stage-3 tail was tuned for.
    """
    test = bundle.test

    def served_accuracy(rotation):
        service, session = _privacy_session(defense, rotation=rotation)
        correct = 0
        for start in range(0, len(test.images), 8):
            images = test.images[start:start + 8]
            labels = test.labels[start:start + 8]
            request_id = session.submit(images)
            service.run_until_idle()
            logits = session.result(request_id)
            correct += int((logits.argmax(axis=1) == labels).sum())
        return correct / len(test.images)

    static_acc = served_accuracy(None)
    rotating_acc = served_accuracy("per_query")
    return {
        "static": static_acc,
        "rotating": rotating_acc,
        "delta": abs(static_acc - rotating_acc),
    }


def run_privacy_benchmark() -> dict:
    """Privacy record: rotation vs static subset leak, ladder, exhaustion.

    Fully deterministic — the trainer, the data, the rotation draws (keyed
    by (session_id, epoch, rotation_index)) and the brute-force sweep all
    run on fixed seeds, so the gates below measure design, not noise.
    """
    defense, bundle = _build_privacy_fixture()
    attack_config = AttackConfig(
        shadow=TrainingConfig(epochs=1, batch_size=16, lr=2e-3,
                              optimizer="adam"),
        decoder=TrainingConfig(epochs=1, batch_size=16, lr=3e-3,
                               optimizer="adam"),
        decoder_width=16)
    attack = InversionAttack(defense.model_config, bundle.image_shape,
                             bundle.train, attack_config, rng=new_rng(9))
    outcome = brute_force_attack(defense, attack, bundle.test.images[:8],
                                 known_p=PRIVACY_SUBSET_SIZE)
    best_subset, best_metrics = outcome.best("ssim")
    return {
        "benchmark": "serving_privacy",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_nets": PRIVACY_NUM_NETS,
        "subset_size": PRIVACY_SUBSET_SIZE,
        "num_queries": PRIVACY_QUERIES,
        "policy": {"alpha": PRIVACY_ALPHA, "eps": PRIVACY_EPS,
                   "q_budget": PRIVACY_Q_BUDGET},
        "base_sigma": PRIVACY_SIGMA,
        "subset_leak": _subset_leak_comparison(defense, bundle),
        "ladder": _ladder_attack_curve(defense, bundle, attack),
        "exhaustion": _exhaustion_replay(defense, bundle),
        "accuracy": _rotation_accuracy(defense, bundle),
        "brute_force": {
            "search_space": outcome.search_space,
            "subsets_tried": outcome.subsets_tried,
            "best_subset": list(best_subset),
            "best_ssim": best_metrics.ssim,
            "found_secret": tuple(best_subset) == defense.selector.indices,
        },
    }


def print_privacy_record(record: dict) -> None:
    leak = record["subset_leak"]
    print(f"\nprivacy benchmark (N={record['num_nets']} bodies, "
          f"P={record['subset_size']}, {record['num_queries']} queries, "
          f"q_budget={record['policy']['q_budget']})")
    print(f"{'selector':>9}  {'leaked-subset SSIM':>18}  "
          f"{'mean overlap':>12}  {'rotations':>9}")
    for mode in ("static", "rotating"):
        row = leak[mode]
        print(f"{mode:>9}  {row['ssim_vs_leaked']:>18.4f}  "
              f"{row['mean_overlap']:>12.3f}  {row['rotations']:>9}")
    ladder = ", ".join(
        f"{row['fraction_spent']:.0%} spent [{row['level']}] "
        f"SSIM {row['ssim']:.3f}" for row in record["ladder"])
    print(f"ladder inversion curve: {ladder}")
    exhaustion = record["exhaustion"]
    print(f"exhaustion: served {exhaustion['served']}/"
          f"{exhaustion['q_budget']} budgeted, refused "
          f"{exhaustion['refused']} of {exhaustion['submitted']} submits, "
          f"charged {exhaustion['charged']}, final level "
          f"{exhaustion['final_level']}, conserved "
          f"{exhaustion['conservation_ok']}")
    accuracy = record["accuracy"]
    print(f"clean accuracy: static {accuracy['static']:.3f} vs rotating "
          f"{accuracy['rotating']:.3f} (delta {accuracy['delta']:.3f})")
    brute = record["brute_force"]
    print(f"brute force (§III-D): tried {brute['subsets_tried']}/"
          f"{brute['search_space']} subsets, best SSIM "
          f"{brute['best_ssim']:.3f}, secret found: "
          f"{brute['found_secret']}")


SCHEDULER_SESSIONS = 8
SCHEDULER_REQUESTS_PER_SESSION = 4
#: images per codec request: payload-bound frames (see _codec_downlink).
CODEC_BATCH = 8


def run_scheduler_benchmark() -> dict:
    """Compare scheduling policies and wire codecs; returns the JSON record."""
    rng = np.random.default_rng(1)
    features = rng.random((REQUEST_BATCH, WIDTH, SPATIAL, SPATIAL),
                          dtype=np.float32)
    codec_features = rng.random((CODEC_BATCH, WIDTH, SPATIAL, SPATIAL),
                                dtype=np.float32)
    bodies = build_bodies(NUM_NETS)
    return {
        "benchmark": "serving_schedulers",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_nets": NUM_NETS,
        "num_sessions": SCHEDULER_SESSIONS,
        "width": WIDTH,
        "spatial": SPATIAL,
        "simulated": _simulated_tail_latency(bodies, features,
                                             SCHEDULER_SESSIONS),
        "throughput": _wall_clock_throughput(bodies, features),
        "weighted": _weighted_shares(bodies, features),
        "codec_batch": CODEC_BATCH,
        "codec": _codec_downlink(bodies, codec_features, SCHEDULER_SESSIONS),
    }


def print_scheduler_record(record: dict) -> None:
    print(f"\nscheduler comparison (N={record['num_nets']} bodies, "
          f"S={record['num_sessions']} sessions, bursty trace)")
    print(f"{'policy':>10}  {'p50 [ms]':>9}  {'p95 [ms]':>9}  {'p99 [ms]':>9}  "
          f"{'SLO viol':>8}  {'ticks':>6}")
    for row in record["simulated"]:
        print(f"{row['scheduler']:>10}  {row['p50_ms']:>9.1f}  "
              f"{row['p95_ms']:>9.1f}  {row['p99_ms']:>9.1f}  "
              f"{row['slo_violations']:>8}  {row['ticks']:>6}")
    thr = record["throughput"]
    print(f"wall-clock wave: fifo {thr['fifo_s'] * 1e3:.2f} ms, "
          f"fair {thr['fair_s'] * 1e3:.2f} ms "
          f"(fair/fifo throughput {ratio_text(thr, 'fair_vs_fifo')})")
    weighted = record["weighted"]
    sim = weighted["simulated"]
    print(f"weighted shares ({weighted['weight_ratio']:g}:1 configured): "
          f"{weighted['heavy_samples']} vs {weighted['light_samples']} samples "
          f"while contended ({weighted['share_ratio']:.2f}x, "
          f"error {weighted['share_error'] * 100:.1f}%); simulated "
          f"heavy p50/p95 {sim['heavy_p50_ms']:.1f}/{sim['heavy_p95_ms']:.1f} ms, "
          f"light p50/p95 {sim['light_p50_ms']:.1f}/{sim['light_p95_ms']:.1f} ms")
    hier = weighted["hierarchical"]
    print(f"hierarchical class: {hier['member_samples'][0]}+"
          f"{hier['member_samples'][1]} class samples vs "
          f"{hier['outsider_samples']} outsider "
          f"(aggregate {hier['aggregate_ratio']:.2f}x, member split "
          f"{hier['member_split_ratio']:.2f}x)")
    codec = record["codec"]
    print(f"downlink codec: fp32 {codec['fp32_downlink_bytes']} B, "
          f"fp16 {codec['fp16_downlink_bytes']} B "
          f"({codec['downlink_reduction']:.2f}x, "
          f"max |diff| {codec['max_abs_diff']:.2e}), "
          f"int8 {codec['int8_downlink_bytes']} B "
          f"({codec['int8_downlink_reduction']:.2f}x, "
          f"max |diff| {codec['int8_max_abs_diff']:.2e})")


def print_record(record: dict) -> None:
    print(f"\nmulti-tenant serving benchmark (N={record['num_nets']} bodies, "
          f"{record['request_batch']}-image requests, {record['body_topology']})")
    print(f"{'S':>3}  {'sequential [ms]':>16}  {'coalesced [ms]':>15}  "
          f"{'req/s seq':>10}  {'req/s coal':>11}  {'ratio [quartiles]':>18}  "
          f"{'max|diff|':>10}")
    for row in record["results"]:
        print(f"{row['num_sessions']:>3}  {row['sequential_s'] * 1e3:>16.2f}  "
              f"{row['coalesced_s'] * 1e3:>15.2f}  {row['sequential_rps']:>10.0f}  "
              f"{row['coalesced_rps']:>11.0f}  "
              f"{ratio_text(row, 'throughput_ratio'):>18}  "
              f"{row['max_abs_diff']:>10.2e}")


def test_coalesced_serving_throughput():
    """Acceptance bar: coalesced ≥ 1.5x sequential at S=8, N=8, equivalent."""
    record = run_benchmark()
    write_record(record)
    print_record(record)
    for row in record["results"]:
        assert row["max_abs_diff"] <= 1e-5, (
            f"serving modes diverge at S={row['num_sessions']}: "
            f"{row['max_abs_diff']}")
    by_s = {row["num_sessions"]: row for row in record["results"]}
    assert by_s[8]["throughput_ratio"] >= 1.5, (
        f"coalesced serving must be ≥1.5x sequential for 8 sessions, got "
        f"{by_s[8]['throughput_ratio']:.2f}x")


if __name__ == "__main__":
    for run, show in ((run_benchmark, print_record),
                      (run_scheduler_benchmark, print_scheduler_record),
                      (run_chaos_benchmark, print_chaos_record),
                      (run_fleet_chaos_benchmark, print_fleet_chaos_record),
                      (run_fleet_scale_benchmark, print_fleet_scale_record),
                      (run_privacy_benchmark, print_privacy_record)):
        record = run()
        out = write_record(record)
        show(record)
    print(f"\nrecords written to {out.parent}")
