"""E1 — looped vs batched ensemble execution (the server's Fig.-2 hot path).

Times ``server_outputs`` over N resnet-style bodies on both backends:

* **looped** — the reference Python loop over N independent graphs;
* **batched** — the fused :class:`~repro.nn.batched.StackedBodies` pass,
  with its conv→BN pairs folded as the server serves it.

Run as pytest (``pytest benchmarks/bench_ensemble.py -s``) or directly
(``python benchmarks/bench_ensemble.py``).  Either way each run writes
its record to ``build/bench-records/<benchmark>.json`` (gitignored); the
pytest entry additionally asserts the acceptance bar (batched ≥ 2x for
N=8, outputs matching to ≤ 1e-5).
"""

import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow `python benchmarks/bench_ensemble.py`
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _bench_utils import ratio_text, time_arms, write_record  # noqa: E402
from repro import nn  # noqa: E402
from repro.ci.pipeline import Client, Server  # noqa: E402
from repro.models.resnet import ResNetBody, ResNetConfig  # noqa: E402
from repro.nn.batched import StackedBodies, fold_batch_norm  # noqa: E402
from repro.nn.tensor import Tensor, no_grad  # noqa: E402
from repro.serving.protocol import UploadRequest  # noqa: E402
from repro.serving.service import InferenceService  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402

BODY_COUNTS = (5, 8)
BATCH_SIZE = 8
WIDTH = 16
SPATIAL = 8
#: counted rounds per timed comparison in this file (each arm < 30 ms).
ROUNDS = 9


def build_bodies(num_nets: int) -> list[ResNetBody]:
    """N resnet-style bodies (4 stages, the resnet10 topology at ``WIDTH``)."""
    config = ResNetConfig(
        num_classes=10,
        stem_channels=WIDTH,
        stage_channels=(WIDTH, 2 * WIDTH, 4 * WIDTH, 8 * WIDTH),
        blocks_per_stage=(1, 1, 1, 1),
    )
    bodies = [ResNetBody(config, new_rng(100 + i)) for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def run_benchmark() -> dict:
    """Time both backends for each N and return the JSON-ready record."""
    rng = np.random.default_rng(0)
    features = rng.random((BATCH_SIZE, WIDTH, SPATIAL, SPATIAL),
                          dtype=np.float32)
    x = Tensor(features)
    results = []
    for num_nets in BODY_COUNTS:
        bodies = build_bodies(num_nets)
        stacked = StackedBodies(bodies)
        stacked.eval()
        fold_batch_norm(stacked)  # as the server serves it

        def looped():
            return [body(x) for body in bodies]

        def batched():
            return stacked(x)

        with no_grad():
            looped_out = looped()
            batched_out = batched()
            max_abs_diff = max(
                float(np.abs(batched_out.data[i] - looped_out[i].data).max())
                for i in range(num_nets)
            )
            timing = time_arms({"looped": looped, "batched": batched},
                               {"speedup": ("looped", "batched")}, ROUNDS)
        results.append({"num_nets": num_nets, **timing,
                        "max_abs_diff": max_abs_diff})
    return {
        "benchmark": "ensemble_server_outputs",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "batch_size": BATCH_SIZE,
        "width": WIDTH,
        "spatial": SPATIAL,
        "body_topology": "resnet10-style (4 stages, 1 block each)",
        "results": results,
    }


def print_record(record: dict) -> None:
    print(f"\nbatched-ensemble benchmark (batch={record['batch_size']}, "
          f"width={record['width']}, {record['body_topology']})")
    print(f"{'N':>3}  {'looped [ms]':>12}  {'batched [ms]':>13}  "
          f"{'speedup [quartiles]':>20}  {'max|diff|':>10}")
    for row in record["results"]:
        print(f"{row['num_nets']:>3}  {row['looped_s'] * 1e3:>12.2f}  "
              f"{row['batched_s'] * 1e3:>13.2f}  "
              f"{ratio_text(row, 'speedup'):>20}  {row['max_abs_diff']:>10.2e}")


# -- E2: eval-time kernel fusion (BN fold + arena) + zero-copy decode ----

FUSION_NUM_NETS = 8
FUSION_WIDTH = 32
FUSION_SPATIAL = 8
FUSION_DEPTH = 12
#: requests per tick x samples per request — the coalesced tick batch.
FUSION_GROUP = 4
FUSION_REQUEST_BATCH = 2
#: per-frame payload for the decode benchmark (~8 MB of fp32).
DECODE_SHAPE = (16, 32, 64, 64)


def build_pointwise_bodies() -> list[nn.Module]:
    """N projection-style bodies: ``FUSION_DEPTH`` x (1x1 conv -> BN -> ReLU).

    This is the *BN-bound* regime the eval-time fold targets: a 1x1 conv
    does ``C`` MACs per output element while eval BN still pays two full
    tensor passes (``x * scale + shift``), so BN is a large fraction of
    the pass and folding it away is a big win.  ResNet-style 3x3 bodies
    are conv/im2col-bound instead — the fold is still exact there (the
    parity suite sweeps it) but the speedup is marginal, so the fusion
    gate measures the workload the optimisation is *for*.
    """
    bodies = []
    for i in range(FUSION_NUM_NETS):
        rng = new_rng(300 + i)
        layers = []
        for _ in range(FUSION_DEPTH):
            layers += [nn.Conv2d(FUSION_WIDTH, FUSION_WIDTH, 1, bias=False,
                                 rng=rng),
                       nn.BatchNorm2d(FUSION_WIDTH), nn.ReLU()]
        body = nn.Sequential(*layers)
        # Non-trivial running statistics so the fold actually moves data:
        # one train-mode batch, then freeze into eval.
        body.train()
        with no_grad():
            body(Tensor(rng.standard_normal(
                (4, FUSION_WIDTH, FUSION_SPATIAL, FUSION_SPATIAL)
            ).astype(np.float32)))
        body.eval()
        bodies.append(body)
    return bodies


def _make_service(bodies: list[nn.Module], fold_bn: bool, fast_path: bool):
    """One service + ``FUSION_GROUP`` identity-client sessions over ``bodies``."""
    server = Server(bodies, fold_bn=fold_bn)
    service = InferenceService(server, max_batch=FUSION_GROUP,
                               fast_path=fast_path)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(FUSION_GROUP)]
    return service, sessions


#: ``(fold_bn, fast_path)`` of each kernel-fusion arm; ``fast_path`` is
#: the arena here, since ticks are fed ``submit_features`` (no decode).
FUSION_ARMS = {"unfolded": (False, False), "fold_off_arena_on": (False, True),
               "fold_on_arena_off": (True, False), "folded": (True, True)}


def run_kernel_fusion_benchmark() -> dict:
    """Folded-fast-path vs unfolded tick latency + zero-copy decode rate.

    Four arms serve the same bodies and the same coalesced group
    (``FUSION_GROUP`` requests x ``FUSION_REQUEST_BATCH`` samples) at
    N = ``FUSION_NUM_NETS``, one per ``fold_bn`` x ``fast_path`` setting
    (``FUSION_ARMS``).  The gated ``speedup`` flips both knobs; the
    recorded ``fold_speedup`` flips only the fold (arena on in both
    arms) and ``arena_speedup`` only the arena (fold on in both).  The
    record also cross-checks every arm's served feature maps against
    the all-off arm (fold parity on the real serve path, ≤ 1e-5).
    """
    rng = np.random.default_rng(7)
    features = rng.random(
        (FUSION_REQUEST_BATCH, FUSION_WIDTH, FUSION_SPATIAL, FUSION_SPATIAL),
        dtype=np.float32)
    bodies = build_pointwise_bodies()
    arms = {name: _make_service(bodies, fold_bn=fold_bn, fast_path=fast_path)
            for name, (fold_bn, fast_path) in FUSION_ARMS.items()}

    # Parity across the arms before timing: same request, same outputs.
    outputs = []
    for service, sessions in arms.values():
        rid = sessions[0].submit_features(features)
        service.run_until_idle()
        outputs.append(sessions[0].result(rid))
    max_abs_diff = max(float(np.abs(a - b).max())
                       for out in outputs[1:] for a, b in zip(outputs[0], out))

    def stage(sessions):
        def submit():  # staged untimed, so each timed call is one tick
            for session in sessions:
                session.submit_features(features)
        return submit

    tick = time_arms(
        {name: service.tick for name, (service, _) in arms.items()},
        {"speedup": ("unfolded", "folded"),
         "fold_speedup": ("fold_off_arena_on", "folded"),
         "arena_speedup": ("fold_on_arena_off", "folded")},
        ROUNDS,
        setup={name: stage(sessions) for name, (_, sessions) in arms.items()})

    # Zero-copy vs copying wire decode on a big (~8 MB) fp32 frame.
    frame = UploadRequest(
        1, 1, rng.random(DECODE_SHAPE, dtype=np.float32)).to_bytes()
    decode = time_arms(
        {"copy": lambda: UploadRequest.from_bytes(frame),
         "zero_copy": lambda: UploadRequest.from_bytes(frame, zero_copy=True)},
        {"speedup": ("copy", "zero_copy")}, ROUNDS)

    return {
        "benchmark": "kernel_fusion",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_nets": FUSION_NUM_NETS,
        "group": FUSION_GROUP,
        "request_batch": FUSION_REQUEST_BATCH,
        "width": FUSION_WIDTH,
        "spatial": FUSION_SPATIAL,
        "body_topology": (f"pointwise {FUSION_DEPTH}x(1x1 conv->BN->ReLU), "
                          f"width {FUSION_WIDTH}"),
        "max_abs_diff": max_abs_diff,
        "tick": tick,
        "decode": {
            "frame_bytes": len(frame),
            **decode,
            "copy_gbps": len(frame) / decode["copy_s"] / 1e9,
            "zero_copy_gbps": len(frame) / decode["zero_copy_s"] / 1e9,
        },
    }


def print_kernel_fusion(record: dict) -> None:
    tick, decode = record["tick"], record["decode"]
    print(f"\nkernel-fusion benchmark (N={record['num_nets']}, "
          f"{record['group']}x{record['request_batch']} samples/tick, "
          f"{record['body_topology']})")
    print(f"  tick:   unfolded {tick['unfolded_s'] * 1e3:.2f}ms  "
          f"folded {tick['folded_s'] * 1e3:.2f}ms  "
          f"-> {ratio_text(tick, 'speedup')}   (arm parity "
          f"{record['max_abs_diff']:.2e})")
    print(f"          fold only {ratio_text(tick, 'fold_speedup')} (arena on "
          f"in both)  arena only {ratio_text(tick, 'arena_speedup')} (fold "
          f"on in both)")
    print(f"  decode: copy {decode['copy_gbps']:.2f} GB/s  "
          f"zero-copy {decode['zero_copy_gbps']:.2f} GB/s  "
          f"-> {ratio_text(decode, 'speedup')}  "
          f"({decode['frame_bytes'] / 1e6:.1f} MB frame)")


def test_batched_ensemble_speedup():
    """Acceptance bar: fused pass ≥ 2x the loop at N=8, outputs matching."""
    record = run_benchmark()
    write_record(record)
    print_record(record)
    for row in record["results"]:
        assert row["max_abs_diff"] <= 1e-5, (
            f"backends diverge at N={row['num_nets']}: {row['max_abs_diff']}")
    by_n = {row["num_nets"]: row for row in record["results"]}
    assert by_n[8]["speedup"] >= 2.0, (
        f"batched must be ≥2x faster than looped for N=8, got "
        f"{by_n[8]['speedup']:.2f}x")


if __name__ == "__main__":
    rec = run_benchmark()
    write_record(rec)
    print_record(rec)
    fusion = run_kernel_fusion_benchmark()
    out = write_record(fusion)
    print_kernel_fusion(fusion)
    print(f"\nrecords written to {out.parent}")
