"""Every metric the benchmark reports: unit, direction, and what it moves.

``END_TO_END`` metrics are what a user of the system sees; each untraced
run reports all of them.  ``LAYERS`` are per-layer metrics from the
traced run, each with the end-to-end metric it should move and the
workload it is measured on.  A traced run reports every layer metric;
one whose layer is not on that workload's path reads 0 (no calls).
``BENCHMARK.json`` lists the same names, units and directions.
"""

from __future__ import annotations

#: the seed the benchmark was tuned with, and the seed held out for
#: checking later gain claims
BUILD_SEED = 1
HELD_OUT_SEED = 90210

# name: (unit, better)
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# name: (unit, better, end-to-end metric it moves, workload measured on)
LAYERS = {
    "ci.encode_ms": ("ms", "lower", "latency_p50_ms", "interactive"),
    "ci.decide_ms": ("ms", "lower", "latency_p50_ms", "interactive"),
    "protocol.upload_to_bytes_ms": ("ms", "lower", "latency_p50_ms",
                                    "interactive"),
    "protocol.response_encode_ms": ("ms", "lower", "throughput_per_s",
                                    "interactive"),
    "protocol.response_to_bytes_ms": ("ms", "lower", "latency_p50_ms",
                                      "interactive"),
    "protocol.response_from_bytes_ms": ("ms", "lower", "latency_p50_ms",
                                        "interactive"),
    "wire.uplink_bytes_per_req": ("bytes", "lower", "latency_p50_ms",
                                  "interactive"),
    "wire.downlink_bytes_per_req": ("bytes", "lower", "latency_p50_ms",
                                    "interactive"),
    "service.submit_bytes_ms": ("ms", "lower", "throughput_per_s",
                                "interactive"),
    "service.queue_wait_ms": ("ms", "lower", "latency_p50_ms",
                              "interactive"),
    "service.tick_ms": ("ms", "lower", "throughput_per_s",
                        "interactive, fleet_replay"),
    "service.tick_self_ms": ("ms", "lower", "throughput_per_s",
                             "interactive"),
    "service.requests_per_tick": ("count", "higher", "throughput_per_s",
                                  "interactive"),
    "privacy.charge_ms": ("ms", "lower", "latency_p50_ms", "interactive"),
    "server.compute_ms": ("ms", "lower", "throughput_per_s",
                          "bulk, interactive"),
    "batched.conv_ms": ("ms", "lower", "throughput_per_s", "bulk, train"),
    "batched.bn_ms": ("ms", "lower", "throughput_per_s", "bulk, train"),
    "batched.act_ms": ("ms", "lower", "throughput_per_s", "bulk, train"),
    "batched.pool_ms": ("ms", "lower", "throughput_per_s", "bulk, train"),
    "batched.block_self_ms": ("ms", "lower", "throughput_per_s",
                              "bulk, train"),
    "flops.conv2d_per_sample": ("flop", "lower", "throughput_per_s", "bulk"),
    "flops.bias_per_sample": ("flop", "lower", "throughput_per_s", "bulk"),
    "flops.batch_norm_per_sample": ("flop", "lower", "throughput_per_s",
                                    "bulk"),
    "arena.hit_ratio": ("ratio", "higher", "throughput_per_s", "bulk"),
    "arena.mib": ("MiB", "lower", "peak_rss_mib", "bulk"),
    "train.forward_ms": ("ms", "lower", "throughput_per_s", "train"),
    "train.backward_ms": ("ms", "lower", "throughput_per_s", "train"),
    "optim.step_ms": ("ms", "lower", "throughput_per_s", "train"),
    "flops.train_conv2d_per_step": ("flop", "lower", "throughput_per_s",
                                    "train"),
    "flops.train_batch_norm_per_step": ("flop", "lower", "throughput_per_s",
                                        "train"),
    "flops.train_linear_per_step": ("flop", "lower", "throughput_per_s",
                                    "train"),
    "fleet.submit_ms": ("ms", "lower", "throughput_per_s", "fleet_replay"),
    "fleet.advance_clock_ms": ("ms", "lower", "throughput_per_s",
                               "fleet_replay"),
    "fleet.ticks": ("count", "lower", "throughput_per_s", "fleet_replay"),
    "fleet.failovers": ("count", "lower", "throughput_per_s",
                        "fleet_replay"),
    "autoscale.step_ms": ("ms", "lower", "throughput_per_s", "fleet_replay"),
    "traffic.decide_ms": ("ms", "lower", "throughput_per_s", "fleet_replay"),
    "checkpoint.snapshot_ms": ("ms", "lower", "throughput_per_s",
                               "fleet_replay"),
    "fleet.spawns": ("count", "lower", "throughput_per_s", "fleet_replay"),
    "fleet.drains": ("count", "lower", "throughput_per_s", "fleet_replay"),
    "fleet.migrations": ("count", "lower", "throughput_per_s",
                         "fleet_replay"),
    "fleet.rejected_arrivals": ("count", "lower", "throughput_per_s",
                                "fleet_replay"),
    "trace.overhead_pct": ("%", "lower", "throughput_per_s", "all"),
    "trace.spans": ("count", "lower", "throughput_per_s", "all"),
}

#: layer metric -> span name whose median duration (per call) it reports
SPAN_MEDIANS = {
    "ci.encode_ms": "ci.encode",
    "ci.decide_ms": "ci.decide",
    "protocol.upload_to_bytes_ms": "protocol.upload_to_bytes",
    "protocol.response_encode_ms": "protocol.response_encode",
    "protocol.response_to_bytes_ms": "protocol.response_to_bytes",
    "protocol.response_from_bytes_ms": "protocol.response_from_bytes",
    "service.submit_bytes_ms": "service.submit_bytes",
    "service.tick_ms": "service.tick",
    "privacy.charge_ms": "privacy.charge",
    "server.compute_ms": "server.compute",
    "train.forward_ms": "train.forward",
    "train.backward_ms": "train.backward",
    "optim.step_ms": "optim.step",
    "fleet.submit_ms": "fleet.submit",
    "fleet.advance_clock_ms": "fleet.advance_clock",
    "autoscale.step_ms": "autoscale.step",
    "traffic.decide_ms": "traffic.decide",
    "checkpoint.snapshot_ms": "checkpoint.snapshot",
}

#: layer metric -> stacked-module span whose self time is summed per
#: forward pass (``server.compute`` or ``train.forward``), median over
#: passes
PASS_SELF = {
    "batched.conv_ms": "batched.conv",
    "batched.bn_ms": "batched.bn",
    "batched.act_ms": "batched.act",
    "batched.pool_ms": "batched.pool",
    "batched.block_self_ms": "batched.block",
}
PASS_SPANS = frozenset({"server.compute", "train.forward"})
