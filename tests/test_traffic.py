"""Streaming trace builders and session admission control."""

import itertools
import types

import numpy as np
import pytest

from repro.serving import (
    ADMIT,
    DOWNGRADE,
    REJECT,
    AdmissionController,
    AdmissionPolicy,
    Arrival,
    diurnal_trace,
    heavy_tailed_trace,
)


def take(generator, n=None):
    if n is None:
        return list(generator)
    return list(itertools.islice(generator, n))


class TestHeavyTailedTrace:
    def test_is_lazy_generator(self):
        trace = heavy_tailed_trace(1000, 10**9, 100.0, seed=0)
        assert isinstance(trace, types.GeneratorType)
        head = take(trace, 5)  # a billion-request trace, peeked cheaply
        assert len(head) == 5
        assert all(isinstance(a, Arrival) for a in head)

    def test_exact_count_and_monotone_times(self):
        trace = take(heavy_tailed_trace(50, 20_000, 500.0, seed=3))
        assert len(trace) == 20_000
        times = [a.time for a in trace]
        assert times == sorted(times)
        assert all(0 <= a.session_index < 50 for a in trace)

    def test_deterministic_under_seed(self):
        a = take(heavy_tailed_trace(100, 5_000, 200.0, seed=42))
        b = take(heavy_tailed_trace(100, 5_000, 200.0, seed=42))
        assert [(x.time, x.session_index) for x in a] == \
               [(x.time, x.session_index) for x in b]
        c = take(heavy_tailed_trace(100, 5_000, 200.0, seed=43))
        assert [(x.time, x.session_index) for x in a] != \
               [(x.time, x.session_index) for x in c]

    def test_popularity_is_heavy_tailed(self):
        trace = take(heavy_tailed_trace(200, 50_000, 1000.0, seed=1,
                                        alpha=1.1))
        counts = np.bincount([a.session_index for a in trace], minlength=200)
        counts = np.sort(counts)[::-1]
        # Whales: the top 10% of sessions carry well over half the traffic.
        assert counts[:20].sum() > 0.5 * counts.sum()

    def test_deadline_carried(self):
        trace = take(heavy_tailed_trace(5, 10, 50.0, seed=0, deadline_s=0.25))
        assert all(a.deadline_s == 0.25 for a in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            take(heavy_tailed_trace(0, 10, 50.0))
        with pytest.raises(ValueError):
            take(heavy_tailed_trace(5, 10, 0.0))
        with pytest.raises(ValueError):
            take(heavy_tailed_trace(5, 10, 50.0, alpha=0.0))


class TestDiurnalTrace:
    def test_exact_count_monotone_and_deterministic(self):
        kwargs = dict(period_s=30.0, peak_factor=5.0, seed=11)
        a = take(diurnal_trace(40, 8_000, 100.0, **kwargs))
        b = take(diurnal_trace(40, 8_000, 100.0, **kwargs))
        assert len(a) == 8_000
        times = [x.time for x in a]
        assert times == sorted(times)
        assert [(x.time, x.session_index) for x in a] == \
               [(x.time, x.session_index) for x in b]

    def test_peak_denser_than_trough(self):
        period = 40.0
        trace = take(diurnal_trace(20, 30_000, 50.0, period_s=period,
                                   peak_factor=8.0, seed=2))
        times = np.array([a.time for a in trace])
        times = times[times < period]  # first full cycle
        phase = times % period
        # Peak half-period (centred on period/2) vs trough half-period.
        peak = ((phase > period * 0.25) & (phase < period * 0.75)).sum()
        trough = len(phase) - peak
        assert peak > 2 * trough

    def test_flat_at_peak_factor_one(self):
        trace = take(diurnal_trace(10, 5_000, 200.0, period_s=10.0,
                                   peak_factor=1.0, seed=0))
        assert len(trace) == 5_000

    def test_validation(self):
        with pytest.raises(ValueError):
            take(diurnal_trace(5, 10, 50.0, period_s=0.0))
        with pytest.raises(ValueError):
            take(diurnal_trace(5, 10, 50.0, period_s=1.0, peak_factor=0.5))


class TestAdmissionController:
    def test_thresholds(self):
        controller = AdmissionController(
            AdmissionPolicy(downgrade_pressure=0.5, reject_pressure=0.8))
        assert controller.decide(0.1) == ADMIT
        assert controller.decide(0.49) == ADMIT
        assert controller.decide(0.5) == DOWNGRADE
        assert controller.decide(0.79) == DOWNGRADE
        assert controller.decide(0.8) == REJECT
        assert controller.decide(1.0) == REJECT
        assert controller.as_dict() == {"admitted": 2, "downgraded": 2,
                                        "rejected": 2}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(downgrade_pressure=0.9, reject_pressure=0.5)
        with pytest.raises(ValueError):
            AdmissionPolicy(downgrade_pressure=0.0)
