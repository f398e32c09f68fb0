"""The benchmarks' one timer and one record writer (benchmarks/_bench_utils.py)."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_bench(name: str):
    # benchmarks/ is deliberately not a package; load its modules by file.
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


utils = load_bench("_bench_utils")


@pytest.fixture
def clock(monkeypatch):
    """The timer's clock; ``clock.arm(name, durations)`` arms log and advance it."""
    fake = SimpleNamespace(now=0.0, calls=[])

    def arm(name, durations):
        durations = iter(durations)

        def call():
            fake.calls.append(name)
            fake.now += next(durations)
        return call

    fake.arm = arm
    monkeypatch.setattr(utils, "perf_counter", lambda: fake.now)
    return fake


def test_arms_rotate_across_rounds_around_untimed_setup(clock):
    def stage():  # logged as "s"; its 500 s fall outside the timed call
        clock.calls.append("s")
        clock.now += 500.0

    total = utils.WARMUP_ROUNDS + 3
    result = utils.time_arms({n: clock.arm(n, [1.0] * total) for n in "abc"}, {}, 3,
                             setup={"b": stage})
    # Each round calls every arm once, starting one arm further on.
    assert "".join(clock.calls) == "".join(
        ("abc"[r % 3:] + "abc"[:r % 3]).replace("b", "sb") for r in range(total))
    assert result["b_s"] == 1.0


def test_medians_and_quartiles_skip_warmup_rounds(clock):
    warm = [1000.0] * utils.WARMUP_ROUNDS  # would move every median
    result = utils.time_arms(
        {"base": clock.arm("base", warm + [4.0, 6.0, 8.0, 10.0, 12.0]),
         "cand": clock.arm("cand", warm + [2.0, 3.0, 2.0, 2.0, 4.0])},
        {"speedup": ("base", "cand")}, rounds=5)
    # Per-round ratios 2, 2, 4, 5, 3: the statistic is their median (3),
    # not the ratio of the arms' medians (8 / 2 = 4).
    assert result == {"base_s": 8.0, "cand_s": 2.0, "speedup": 3.0,
                      "speedup_q1": 2.0, "speedup_q3": 4.0, "rounds": 5}


def test_write_record_keeps_one_object_per_benchmark(tmp_path, monkeypatch):
    record_dir = tmp_path / "build" / "bench-records"  # not created yet
    monkeypatch.setattr(utils, "RECORD_DIR", record_dir)
    for record in ({"benchmark": "demo", "run": 0}, {"benchmark": "other"},
                   {"benchmark": "demo", "run": 1}):
        utils.write_record(record)
    assert sorted(p.name for p in record_dir.iterdir()) == ["demo.json", "other.json"]
    assert json.loads((record_dir / "demo.json").read_text()) == {"benchmark": "demo", "run": 1}


@pytest.mark.parametrize("name", ["bench_ensemble", "bench_attack", "bench_serving"])
def test_default_record_path_is_the_gitignored_record_dir(name):
    """Every bench writes through the shared writer under the gitignored build/."""
    module = load_bench(name)
    shared = sys.modules["_bench_utils"]  # as the bench module imported it
    assert module.write_record is shared.write_record
    assert shared.RECORD_DIR == REPO_ROOT / "build" / "bench-records"
    assert "build/" in (REPO_ROOT / ".gitignore").read_text().split()
