"""E2 — looped vs fused brute-force subset sweep (the §III-D hot path).

Times ``InversionAttack.attack_subsets`` — K full shadow + inversion-decoder
trainings against K body subsets — on both backends:

* **looped** — the reference one-training-per-subset Python loop;
* **fused**  — the multi-attack engine: shadows, gathered bodies and
  decoders stacked along the ensemble axis, all K members advancing in one
  :func:`~repro.core.training.run_stacked_sgd` pass per phase.

The sweep runs at small-batch attack scale (the regime the subset
enumeration actually operates in: many short trainings, where per-subset
Python and fixed-pass overhead dominate), with K ∈ {4, 7, 15} subsets of
size 2 drawn from N=6 server bodies.  Both backends consume identical RNG
streams, so the timed work is the same training up to float reassociation.

Run as pytest (``pytest benchmarks/bench_attack.py -s``) or directly
(``python benchmarks/bench_attack.py``).  Either way a record is appended
to the ``BENCH_attack.json`` history list in the gitignored
``build/bench-records/`` (never the tracked file at the repo root); the pytest
entry additionally asserts the acceptance bar (fused ≥ 1.5x at K=15).
"""

import itertools
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow `python benchmarks/bench_attack.py`
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _bench_utils import RECORD_DIR, write_record as _write_record  # noqa: E402
from repro.attacks import AttackConfig, InversionAttack  # noqa: E402
from repro.core.training import TrainingConfig  # noqa: E402
from repro.data.synthetic import cifar10_like  # noqa: E402
from repro.models.resnet import ResNetBody, ResNetConfig  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402

SUBSET_COUNTS = (4, 7, 15)
NUM_BODIES = 6
SUBSET_SIZE = 2
WIDTH = 8
BATCH_SIZE = 4
EPOCHS = 1
CHUNK_SIZE = 8
RECORD_PATH = RECORD_DIR / "BENCH_attack.json"


def build_fixture(width: int = WIDTH, num_bodies: int = NUM_BODIES,
                  batch_size: int = BATCH_SIZE, epochs: int = EPOCHS):
    """The attacked deployment: N frozen bodies plus the attacker's setup."""
    config = ResNetConfig(num_classes=4, stem_channels=width,
                          stage_channels=(width, 2 * width),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    attack_config = AttackConfig(
        shadow=TrainingConfig(epochs=epochs, batch_size=batch_size, lr=2e-3,
                              optimizer="adam"),
        decoder=TrainingConfig(epochs=epochs, batch_size=batch_size, lr=3e-3,
                               optimizer="adam"),
        decoder_width=2 * width)
    bundle = cifar10_like(size=16, train_per_class=8, test_per_class=2,
                          num_classes=4, rng=new_rng(0))
    bodies = [ResNetBody(config, new_rng(100 + i)) for i in range(num_bodies)]
    for body in bodies:
        body.eval()
    return config, attack_config, bundle, bodies


def time_sweep(config, attack_config, bundle, bodies, subsets, backend: str,
               chunk_size: int = CHUNK_SIZE, repeats: int = 2) -> float:
    """Best-of-``repeats`` wall time of one full K-subset attack sweep."""
    best = float("inf")
    for _ in range(repeats):
        attack = InversionAttack(config, bundle.image_shape, bundle.train,
                                 attack_config, rng=new_rng(7))
        start = time.perf_counter()
        attack.attack_subsets(bodies, subsets, backend=backend,
                              chunk_size=chunk_size)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(subset_counts=SUBSET_COUNTS, chunk_size: int = CHUNK_SIZE,
                  repeats: int = 2) -> dict:
    """Time both backends for each K and return the JSON-ready record."""
    config, attack_config, bundle, bodies = build_fixture()
    all_subsets = list(itertools.combinations(range(NUM_BODIES), SUBSET_SIZE))
    results = []
    # Warm caches/allocators once so the first timed backend is not penalised.
    time_sweep(config, attack_config, bundle, bodies, all_subsets[:2],
               "fused", chunk_size, repeats=1)
    for count in subset_counts:
        subsets = all_subsets[:count]
        if len(subsets) < count:
            raise ValueError(f"fixture only provides {len(subsets)} subsets")
        looped_s = time_sweep(config, attack_config, bundle, bodies, subsets,
                              "looped", chunk_size, repeats)
        fused_s = time_sweep(config, attack_config, bundle, bodies, subsets,
                             "fused", chunk_size, repeats)
        results.append({
            "num_subsets": count,
            "looped_s": looped_s,
            "fused_s": fused_s,
            "speedup": looped_s / fused_s,
        })
    return {
        "benchmark": "attack_subset_sweep",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_bodies": NUM_BODIES,
        "subset_size": SUBSET_SIZE,
        "width": WIDTH,
        "batch_size": BATCH_SIZE,
        "epochs": EPOCHS,
        "chunk_size": chunk_size,
        "results": results,
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> Path:
    """Append ``record`` to the per-PR history list at ``path``."""
    return _write_record(record, path)


def print_record(record: dict) -> None:
    print(f"\nmulti-attack benchmark (N={record['num_bodies']} bodies, "
          f"P={record['subset_size']}, batch={record['batch_size']}, "
          f"chunk={record['chunk_size']})")
    print(f"{'K':>3}  {'looped [s]':>11}  {'fused [s]':>10}  {'speedup':>8}")
    for row in record["results"]:
        print(f"{row['num_subsets']:>3}  {row['looped_s']:>11.2f}  "
              f"{row['fused_s']:>10.2f}  {row['speedup']:>7.2f}x")


def test_fused_attack_speedup():
    """Acceptance bar: fused sweep ≥ 1.5x the looped sweep at K=15."""
    record = run_benchmark()
    write_record(record)
    print_record(record)
    by_k = {row["num_subsets"]: row for row in record["results"]}
    assert by_k[15]["speedup"] >= 1.5, (
        f"fused sweep must be ≥1.5x faster than looped at K=15, got "
        f"{by_k[15]['speedup']:.2f}x")


if __name__ == "__main__":
    rec = run_benchmark()
    out = write_record(rec)
    print_record(rec)
    print(f"\nrecord written to {out}")
