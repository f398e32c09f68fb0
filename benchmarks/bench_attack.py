"""E2 — looped vs fused brute-force subset sweep (the §III-D hot path).

Times ``InversionAttack.attack_subsets`` — K full shadow + inversion-decoder
trainings against K body subsets — on both backends:

* **looped** — the reference one-training-per-subset Python loop;
* **fused**  — the multi-attack engine: shadows, gathered bodies and
  decoders stacked along the ensemble axis, all K members advancing in one
  :func:`~repro.core.training.run_stacked_sgd` pass per phase.

The sweep runs at small-batch attack scale (the regime the subset
enumeration actually operates in: many short trainings, where per-subset
Python and fixed-pass overhead dominate), with K ∈ {7, 15} subsets of
size 2 drawn from N=6 server bodies.  Both backends consume identical RNG
streams, so the timed work is the same training up to float reassociation.

Run as pytest (``pytest benchmarks/bench_attack.py -s``) or directly
(``python benchmarks/bench_attack.py``).  Either way each run writes its
record to ``build/bench-records/<benchmark>.json`` (gitignored); the
pytest entry additionally asserts the acceptance bar (fused ≥ 1.5x at
K=15).
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

from _bench_utils import ratio_text, time_arms, write_record  # noqa: E402
from repro.attacks import AttackConfig, InversionAttack  # noqa: E402
from repro.core.training import TrainingConfig  # noqa: E402
from repro.data.synthetic import cifar10_like  # noqa: E402
from repro.models.resnet import ResNetBody, ResNetConfig  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402

SUBSET_COUNTS = (7, 15)
NUM_BODIES = 6
SUBSET_SIZE = 2
WIDTH = 8
BATCH_SIZE = 4
EPOCHS = 1
CHUNK_SIZE = 8
#: counted rounds per K: one K=15 round of both arms takes ~1.3 s.
ROUNDS = 3


def build_fixture():
    """The attacked deployment: N frozen bodies plus the attacker's setup."""
    config = ResNetConfig(num_classes=4, stem_channels=WIDTH,
                          stage_channels=(WIDTH, 2 * WIDTH),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    attack_config = AttackConfig(
        shadow=TrainingConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, lr=2e-3,
                              optimizer="adam"),
        decoder=TrainingConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, lr=3e-3,
                               optimizer="adam"),
        decoder_width=2 * WIDTH)
    bundle = cifar10_like(size=16, train_per_class=8, test_per_class=2,
                          num_classes=4, rng=new_rng(0))
    bodies = [ResNetBody(config, new_rng(100 + i)) for i in range(NUM_BODIES)]
    for body in bodies:
        body.eval()
    return config, attack_config, bundle, bodies


def run_benchmark() -> dict:
    """Time both backends for each K and return the JSON-ready record."""
    config, attack_config, bundle, bodies = build_fixture()
    all_subsets = list(itertools.combinations(range(NUM_BODIES), SUBSET_SIZE))

    def sweep(subsets, backend):
        # A fresh attacker per call, so every sweep draws the same RNG.
        return lambda: InversionAttack(
            config, bundle.image_shape, bundle.train, attack_config,
            rng=new_rng(7)).attack_subsets(bodies, subsets, backend=backend,
                                           chunk_size=CHUNK_SIZE)

    results = []
    for count in SUBSET_COUNTS:
        subsets = all_subsets[:count]
        timing = time_arms(
            {"looped": sweep(subsets, "looped"),
             "fused": sweep(subsets, "fused")},
            {"speedup": ("looped", "fused")}, ROUNDS)
        results.append({"num_subsets": count, **timing})
    return {
        "benchmark": "attack_subset_sweep",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "num_bodies": NUM_BODIES,
        "subset_size": SUBSET_SIZE,
        "width": WIDTH,
        "batch_size": BATCH_SIZE,
        "epochs": EPOCHS,
        "chunk_size": CHUNK_SIZE,
        "results": results,
    }


def print_record(record: dict) -> None:
    print(f"\nmulti-attack benchmark (N={record['num_bodies']} bodies, "
          f"P={record['subset_size']}, batch={record['batch_size']}, "
          f"chunk={record['chunk_size']})")
    print(f"{'K':>3}  {'looped [s]':>11}  {'fused [s]':>10}  "
          f"{'speedup [quartiles]':>20}")
    for row in record["results"]:
        print(f"{row['num_subsets']:>3}  {row['looped_s']:>11.2f}  "
              f"{row['fused_s']:>10.2f}  {ratio_text(row, 'speedup'):>20}")


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
