"""Tests for utilities: RNG management, configs, logging, serialization."""

import dataclasses
import logging

import numpy as np
import pytest

from repro import nn
from repro.core.selector import Selector
from repro.utils.config import FrozenConfig
from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import (
    default_rng,
    new_rng,
    seed_everything,
    spawn_rng,
)
from repro.utils.serialization import load_module, load_selector, save_module, save_selector


class TestRng:
    def test_seed_everything_resets_default(self):
        seed_everything(123)
        a = default_rng().integers(0, 1000)
        seed_everything(123)
        b = default_rng().integers(0, 1000)
        assert a == b

    def test_new_rng_with_seed_is_independent_of_default(self):
        seed_everything(0)
        a = new_rng(5).integers(0, 10**9)
        seed_everything(99)
        b = new_rng(5).integers(0, 10**9)
        assert a == b

    def test_new_rng_without_seed_derives_from_default(self):
        seed_everything(7)
        a = new_rng().integers(0, 10**9)
        seed_everything(7)
        b = new_rng().integers(0, 10**9)
        assert a == b

    def test_spawn_rng_streams_differ(self):
        parent = new_rng(0)
        a, b = spawn_rng(parent), spawn_rng(parent)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)


class TestFrozenConfig:
    @dataclasses.dataclass(frozen=True)
    class Example(FrozenConfig):
        alpha: int = 1
        beta: str = "x"

    def test_to_dict(self):
        assert self.Example().to_dict() == {"alpha": 1, "beta": "x"}

    def test_replace_returns_copy(self):
        base = self.Example()
        other = base.replace(alpha=5)
        assert other.alpha == 5
        assert base.alpha == 1

    def test_from_dict_ignores_unknown(self):
        config = self.Example.from_dict({"alpha": 2, "gamma": "ignored"})
        assert config.alpha == 2


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("foo").name == "repro.foo"
        assert get_logger("repro.bar").name == "repro.bar"

    def test_enable_console_logging_idempotent(self):
        enable_console_logging()
        root = logging.getLogger("repro")
        count = len([h for h in root.handlers if isinstance(h, logging.StreamHandler)])
        enable_console_logging()
        count_after = len([h for h in root.handlers if isinstance(h, logging.StreamHandler)])
        assert count == count_after


class TestSerialization:
    def test_module_roundtrip(self, tmp_path):
        from repro.utils.rng import new_rng
        a = nn.Sequential(nn.Conv2d(3, 4, 3, rng=new_rng(1)), nn.BatchNorm2d(4))
        b = nn.Sequential(nn.Conv2d(3, 4, 3, rng=new_rng(2)), nn.BatchNorm2d(4))
        path = tmp_path / "model.npz"
        save_module(a, path)
        load_module(b, path)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_module_roundtrip_includes_buffers(self, tmp_path):
        bn_a = nn.BatchNorm2d(2)
        bn_a.running_mean[...] = 3.0
        path = tmp_path / "bn.npz"
        save_module(bn_a, path)
        bn_b = nn.BatchNorm2d(2)
        load_module(bn_b, path)
        np.testing.assert_array_equal(bn_b.running_mean, [3.0, 3.0])

    def test_load_into_mismatched_module_fails(self, tmp_path):
        from repro.utils.rng import new_rng
        path = tmp_path / "x.npz"
        save_module(nn.Linear(2, 2, rng=new_rng(0)), path)
        # Same parameter names but wrong shapes -> ValueError; a structurally
        # different module (extra/missing names) -> KeyError.
        with pytest.raises(ValueError):
            load_module(nn.Conv2d(1, 1, 1, rng=new_rng(0)), path)
        with pytest.raises(KeyError):
            load_module(nn.BatchNorm2d(2), path)

    def test_selector_roundtrip(self, tmp_path):
        path = tmp_path / "selector.npz"
        selector = Selector(10, (1, 4, 7))
        save_selector(selector, path)
        loaded = load_selector(path)
        assert loaded.num_nets == 10
        assert loaded.indices == (1, 4, 7)
