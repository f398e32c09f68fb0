#!/usr/bin/env python
"""Perf smoke check: the fused engines must beat their Python loops.

Two gates, both intended for CI and pre-merge checks (the full trajectory
benchmarks live in ``benchmarks/``):

* **ensemble** — the batched N-body pass must not be slower than looped
  ``server_outputs`` for any N >= 5 (the regime the Ensembler protocol
  actually serves; the paper runs N=10), with outputs matching to 1e-5.
* **kernel_fusion** — the eval-time serve-path optimisations must pay for
  themselves on the BN-bound pointwise workload: folded (BN-fold + arena)
  ticks >= 1.15x unfolded tick throughput at N=8, zero-copy frame decode
  not slower than the copying parse, both serve arms matching to 1e-5.
* **attack** — the fused multi-attack subset sweep must not be slower than
  the looped per-subset loop for K >= 7 subsets (the brute-force regime;
  even N=4 with leaked P=2 already enumerates C(4,2)+ subsets).
* **serving** — coalescing concurrent client uploads into one stacked pass
  must not serve slower than one pass per request for >= 4 concurrent
  sessions (the multi-tenant regime), with per-request outputs matching to
  1e-5.
* **scheduler/codec** — the fair-share scheduler must not degrade serving
  throughput vs FIFO by more than 10% on the same request wave, deadline
  scheduling must beat drain-the-queue FIFO p95 on the bursty trace, the
  weighted fair scheduler must deliver the configured 2:1 tenant shares
  within 15% on the contended trace, and the negotiated codecs must cut
  downlink bytes by >= 1.9x (fp16) and >= 3.5x (int8).
* **chaos** — goodput under ~5% injected frame faults plus a mid-run
  tick crash must stay >= 0.85x the fault-free baseline of the same
  bursty trace, and every submitted request (chaos and baseline alike)
  must end in exactly one terminal state (the conservation invariant
  ``SimulationReport.conservation_ok`` verifies per replay).
* **fleet** — killing 1 of 4 replicas mid-trace must keep fleet goodput
  >= 0.70x the fault-free fleet replay, conserve every submission in
  exactly one terminal state across failover, serve no request twice
  (``duplicate_serves == 0``), and migrate at most half the live
  sessions (the consistent-hash ring bounds the blast radius near 1/N).
* **fleet_scale** — on the same 10^4-session diurnal stream (lazy
  generator trace, sketch-backed reports) the autoscaled fleet's p99
  must not exceed the static 2-replica baseline's and its goodput must
  be >= 1.0x; the control loop must actually spawn into the peak, with
  live migrations whose per-session epsilon ledger only ever ratchets
  up; both arms must conserve every submission with zero duplicates.
* **privacy** — a once-leaked secret subset must decode static-selector
  traffic perfectly (SSIM ~1.0) while per-query rotation degrades it;
  clean-task accuracy must stay within 0.25 of the static selector; and
  the budget-exhaustion replay must serve (and charge) exactly
  ``q_budget`` queries, refusing every later submit with the typed
  ``PrivacyExhaustedError`` — never silently serving past exhaustion.

Usage: ``python scripts/check_perf.py``
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def load_bench(name: str):
    """Import a benchmarks/ module by file (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_ensemble() -> list[str]:
    bench = load_bench("bench_ensemble")

    def measure() -> list[str]:
        record = bench.run_benchmark(body_counts=(5, 8), repeats=3)
        bench.print_record(record)
        failures = []
        for row in record["results"]:
            if row["max_abs_diff"] > 1e-5:
                failures.append(
                    f"ensemble N={row['num_nets']}: backends diverge "
                    f"(max abs diff {row['max_abs_diff']:.2e} > 1e-5)")
            if row["num_nets"] >= 5 and row["speedup"] < 1.0:
                failures.append(
                    f"ensemble N={row['num_nets']}: batched is SLOWER than "
                    f"looped ({row['speedup']:.2f}x)")
        return failures

    return measure_with_retry(measure, "ensemble")


def measure_with_retry(measure, label: str, attempts: int = 2) -> list[str]:
    """Wall-clock gates on shared runners are noisy: best-of-N timing per
    attempt, and one clean re-measure before declaring a regression.
    ``measure`` runs one benchmark attempt and returns its failure list."""
    failures = measure()
    for attempt in range(1, attempts):
        if not failures:
            break
        print(f"\n{label} gate below 1.0x; re-measuring once to rule out "
              "scheduler noise...")
        failures = measure()
    return failures


def check_kernel_fusion() -> list[str]:
    """Eval-time fusion gate: the folded fast path must pay for itself.

    Gates the serve-path optimisations end to end on the BN-bound
    pointwise workload they target: folded + arena ticks must be
    >= 1.15x unfolded tick throughput at N=8, zero-copy frame decode
    must not be slower than the copying parse, and the serve arms must
    agree to 1e-5.  The fold-only and arena-only tick speedups are
    recorded and printed but not gated.  Each gated measurement is
    appended to ``build/bench-records/BENCH_ensemble.json`` so the CI
    artifact records what the gate saw.
    """
    bench = load_bench("bench_ensemble")

    def measure() -> list[str]:
        record = bench.run_kernel_fusion_benchmark()
        bench.write_record(record)
        bench.print_kernel_fusion(record)
        failures = []
        if record["max_abs_diff"] > 1e-5:
            failures.append(
                f"kernel_fusion: folded and unfolded serve arms diverge "
                f"(max abs diff {record['max_abs_diff']:.2e} > 1e-5)")
        if record["tick"]["speedup"] < 1.15:
            failures.append(
                f"kernel_fusion: folded fast path is "
                f"{record['tick']['speedup']:.2f}x unfolded tick throughput "
                f"at N={record['num_nets']} (< 1.15x)")
        if record["decode"]["speedup"] < 1.0:
            failures.append(
                f"kernel_fusion: zero-copy decode is SLOWER than the "
                f"copying parse ({record['decode']['speedup']:.2f}x)")
        return failures

    return measure_with_retry(measure, "kernel_fusion")


def check_attack() -> list[str]:
    bench = load_bench("bench_attack")

    def measure() -> list[str]:
        record = bench.run_benchmark(subset_counts=(7, 15), repeats=3)
        bench.print_record(record)
        return [
            f"attack K={row['num_subsets']}: fused sweep is SLOWER than "
            f"looped ({row['speedup']:.2f}x)"
            for row in record["results"]
            if row["num_subsets"] >= 7 and row["speedup"] < 1.0
        ]

    return measure_with_retry(measure, "attack")


def check_serving() -> list[str]:
    """Coalesced multi-tenant serving must beat per-request passes.

    Each gated measurement is appended to
    ``build/bench-records/BENCH_serving.json``, so the CI artifact
    records exactly what the gate saw (no second benchmark run).
    """
    bench = load_bench("bench_serving")

    def measure() -> list[str]:
        record = bench.run_benchmark(session_counts=(4, 8), repeats=3)
        bench.write_record(record)
        bench.print_record(record)
        failures = []
        for row in record["results"]:
            if row["max_abs_diff"] > 1e-5:
                failures.append(
                    f"serving S={row['num_sessions']}: coalesced outputs diverge "
                    f"(max abs diff {row['max_abs_diff']:.2e} > 1e-5)")
            if row["num_sessions"] >= 4 and row["throughput_ratio"] < 1.0:
                failures.append(
                    f"serving S={row['num_sessions']}: coalesced is SLOWER than "
                    f"sequential ({row['throughput_ratio']:.2f}x)")
        return failures

    return measure_with_retry(measure, "serving")


def check_schedulers() -> list[str]:
    """Policy-layer gates: fairness must be near-free, weighted shares
    must track the configured ratio, fp16/int8 must shrink the downlink,
    and deadline batching must beat FIFO tails.

    As with the serving gate, every measurement is appended to
    ``build/bench-records/BENCH_serving.json`` so the CI artifact
    records what the gate saw.
    """
    bench = load_bench("bench_serving")

    def measure() -> list[str]:
        record = bench.run_scheduler_benchmark(repeats=3)
        bench.write_record(record)
        bench.print_scheduler_record(record)
        failures = []
        ratio = record["throughput"]["fair_vs_fifo"]
        if ratio < 0.9:
            failures.append(
                f"scheduler: fair-share degrades throughput vs FIFO by more "
                f"than 10% ({ratio:.2f}x)")
        by_policy = {row["scheduler"]: row for row in record["simulated"]}
        if by_policy["deadline"]["p95_ms"] >= by_policy["fifo"]["p95_ms"]:
            failures.append(
                f"scheduler: deadline p95 ({by_policy['deadline']['p95_ms']:.1f} ms) "
                f"does not beat FIFO p95 ({by_policy['fifo']['p95_ms']:.1f} ms)")
        share_error = record["weighted"]["share_error"]
        if share_error > 0.15:
            failures.append(
                f"scheduler: weighted shares off the configured "
                f"{record['weighted']['weight_ratio']:g}:1 by "
                f"{share_error * 100:.1f}% (> 15%): "
                f"{record['weighted']['share_ratio']:.2f}x")
        hierarchical = record["weighted"]["hierarchical"]
        if hierarchical["aggregate_error"] > 0.15:
            failures.append(
                f"scheduler: rate-class aggregate share off 1:1 vs the "
                f"outsider by {hierarchical['aggregate_error'] * 100:.1f}% "
                f"(> 15%)")
        if hierarchical["member_split_error"] > 0.15:
            failures.append(
                f"scheduler: intra-class members split the class share "
                f"unevenly ({hierarchical['member_split_ratio']:.2f}x)")
        reduction = record["codec"]["downlink_reduction"]
        if reduction < 1.9:
            failures.append(
                f"codec: fp16 downlink reduction {reduction:.2f}x below the "
                f"1.9x bar")
        int8_reduction = record["codec"]["int8_downlink_reduction"]
        if int8_reduction < 3.5:
            failures.append(
                f"codec: int8 downlink reduction {int8_reduction:.2f}x below "
                f"the 3.5x bar")
        return failures

    return measure_with_retry(measure, "scheduler")


def check_chaos() -> list[str]:
    """Resilience gate: faults may cost tail latency, never correctness.

    The replay is fully deterministic (seeded injector, virtual clock),
    so this gate needs no noise-tolerant retry: a failure is a real
    regression in the fault-tolerance path, not scheduler jitter.
    """
    bench = load_bench("bench_serving")
    record = bench.run_chaos_benchmark()
    bench.write_record(record)
    bench.print_chaos_record(record)
    failures = []
    for name in ("baseline", "chaos"):
        if not record[name]["conservation_ok"]:
            failures.append(
                f"chaos: {name} replay leaked requests without a terminal "
                f"state: {record[name]['terminal_counts']}")
    if record["chaos"]["tick_failures"] < 1:
        failures.append("chaos: the injected tick crash never fired")
    if record["goodput_ratio"] < 0.85:
        failures.append(
            f"chaos: goodput under {record['frame_fault_rate'] * 100:.0f}% "
            f"frame faults is {record['goodput_ratio']:.2f}x fault-free "
            f"(< 0.85x)")
    return failures


def check_fleet() -> list[str]:
    """Replicated-tier gate: losing a replica may cost latency, never
    correctness — and the ring must bound the failover blast radius.

    Deterministic like the chaos gate (seeded plan, virtual clocks per
    replica), so failures are real fault-tolerance regressions.
    """
    bench = load_bench("bench_serving")
    record = bench.run_fleet_chaos_benchmark()
    bench.write_record(record)
    bench.print_fleet_chaos_record(record)
    failures = []
    for name in ("baseline", "chaos"):
        if not record[name]["conservation_ok"]:
            failures.append(
                f"fleet: {name} replay leaked requests without a terminal "
                f"state across failover: {record[name]['terminal_counts']}")
        if record[name]["duplicate_serves"]:
            failures.append(
                f"fleet: {name} replay served "
                f"{record[name]['duplicate_serves']} requests twice")
    if record["chaos"]["failovers"] != 1:
        failures.append(
            f"fleet: expected exactly 1 failover after the mid-trace kill, "
            f"saw {record['chaos']['failovers']}")
    if record["goodput_ratio"] < 0.70:
        failures.append(
            f"fleet: goodput after losing 1 of {record['num_replicas']} "
            f"replicas is {record['goodput_ratio']:.2f}x fault-free "
            f"(< 0.70x)")
    if record["chaos"]["migrated_fraction"] > 0.5:
        failures.append(
            f"fleet: failover moved "
            f"{record['chaos']['migrated_fraction'] * 100:.0f}% of live "
            f"sessions (> 50%); the ring should bound it near "
            f"1/{record['num_replicas']}")
    return failures


def check_fleet_scale() -> list[str]:
    """Fleet-scale gate: elasticity must pay for itself at 10^4 sessions.

    Deterministic (seeded trace generators, virtual clocks), so a
    failure is a real regression in the autoscaler, the admission
    controller, or the streaming simulators — not timing noise.
    """
    bench = load_bench("bench_serving")
    record = bench.run_fleet_scale_benchmark()
    bench.write_record(record)
    bench.print_fleet_scale_record(record)
    failures = []
    for name in ("static", "autoscaled"):
        arm = record[name]
        if not arm["conservation_ok"]:
            failures.append(
                f"fleet_scale: {name} replay leaked requests without a "
                f"terminal state")
        if arm["duplicate_serves"]:
            failures.append(
                f"fleet_scale: {name} replay served "
                f"{arm['duplicate_serves']} requests twice")
        if arm["exact_latencies_retained"]:
            failures.append(
                f"fleet_scale: {name} replay materialised "
                f"{arm['exact_latencies_retained']} exact latencies for a "
                f"streamed trace (sketches only at scale)")
    auto = record["autoscaled"]
    if auto["spawns"] < 1:
        failures.append(
            "fleet_scale: the diurnal peak never forced a scale-up")
    if auto["migrations"] < 1:
        failures.append("fleet_scale: scale-up moved no sessions")
    if not auto["epsilon_ratchet_ok"]:
        failures.append(
            "fleet_scale: a live migration rolled a privacy ledger "
            "backwards")
    if auto["p99_ms"] > record["static"]["p99_ms"]:
        failures.append(
            f"fleet_scale: autoscaled p99 ({auto['p99_ms']:.1f} ms) worse "
            f"than static ({record['static']['p99_ms']:.1f} ms)")
    if record["goodput_ratio"] < 1.0:
        failures.append(
            f"fleet_scale: autoscaling lost goodput "
            f"({record['goodput_ratio']:.2f}x static, < 1.0x)")
    return failures


def check_privacy() -> list[str]:
    """Privacy-tier gate: rotation must devalue leaked subsets, budgets
    must be conserved, and exhausted sessions must be refused.

    Deterministic end to end — the trainer, the data, and the rotation
    draws (keyed by (session_id, epoch, rotation_index)) are all seeded —
    so failures are real regressions in the privacy tier, not noise.
    """
    bench = load_bench("bench_serving")
    record = bench.run_privacy_benchmark()
    bench.write_record(record)
    bench.print_privacy_record(record)
    failures = []
    leak = record["subset_leak"]
    if leak["static"]["ssim_vs_leaked"] < 0.999:
        failures.append(
            f"privacy: a leaked subset must decode static traffic "
            f"perfectly, got SSIM {leak['static']['ssim_vs_leaked']:.4f}")
    if leak["rotating"]["ssim_vs_leaked"] > leak["static"]["ssim_vs_leaked"] - 0.05:
        failures.append(
            f"privacy: per-query rotation does not degrade the leaked "
            f"subset (rotating SSIM {leak['rotating']['ssim_vs_leaked']:.4f} "
            f"vs static {leak['static']['ssim_vs_leaked']:.4f})")
    exhaustion = record["exhaustion"]
    if not exhaustion["conservation_ok"]:
        failures.append(
            f"privacy: budget not conserved — served {exhaustion['served']} "
            f"of q_budget {exhaustion['q_budget']}, charged "
            f"{exhaustion['charged']}")
    if exhaustion["refused"] < 1:
        failures.append(
            "privacy: submits past exhaustion were silently served")
    if record["accuracy"]["delta"] > 0.25:
        failures.append(
            f"privacy: rotation costs {record['accuracy']['delta']:.3f} "
            f"clean accuracy (> 0.25 tolerance)")
    return failures


def main() -> int:
    failures = (check_ensemble() + check_kernel_fusion() + check_attack()
                + check_serving() + check_schedulers() + check_chaos()
                + check_fleet() + check_fleet_scale() + check_privacy())
    if failures:
        print("\nPERF CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf check ok: batched >= looped for N >= 5, "
          "folded fast-path ticks >= 1.15x unfolded at N=8 with zero-copy "
          "decode no slower than copying, "
          "fused attack >= looped for K >= 7, "
          "coalesced serving >= sequential for S >= 4, "
          "fair-share within 10% of FIFO, deadline p95 < FIFO p95, "
          "weighted 2:1 shares within 15%, "
          "fp16 downlink >= 1.9x and int8 >= 3.5x smaller, "
          "chaos goodput >= 0.85x fault-free with request conservation, "
          "fleet goodput >= 0.70x after a replica kill with zero duplicate "
          "serves and a bounded failover blast radius, "
          "autoscaled fleet p99 <= static at 10^4 sessions with goodput "
          ">= 1.0x and a monotone epsilon ledger across live migrations, "
          "privacy rotation devalues leaked subsets with conserved budgets "
          "and hard refusal past exhaustion")
    return 0


if __name__ == "__main__":
    sys.exit(main())
