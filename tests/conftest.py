"""Shared fixtures.

Expensive end-to-end simulations are session-scoped so the many
integration tests that inspect their results don't re-run them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import PathmapConfig, analyze_window
from repro.apps.rubis import build_rubis

try:  # hypothesis is optional; property tests importorskip it themselves
    from hypothesis import HealthCheck, settings as hypothesis_settings

    # "ci" (the default) derandomizes so CI failures always reproduce;
    # set HYPOTHESIS_PROFILE=dev locally for fresh random examples.
    hypothesis_settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.register_profile("dev", deadline=None)
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - container always has hypothesis
    pass

#: Analysis parameters shared by the integration fixtures: the paper's
#: tau/omega with a window sized for fast tests.
FAST_CONFIG = PathmapConfig(
    window=60.0,
    refresh_interval=20.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)


@pytest.fixture(autouse=True)
def _pinned_global_seeds():
    """Defense-in-depth determinism: every audited test passes explicit
    seeds (``default_rng(N)``), but any future code path that falls back
    to the *global* random state gets a fixed, per-test seed here rather
    than entropy from the OS. Keeps back-to-back suite runs bit-identical.
    """
    import random

    random.seed(0xE2EB0F)
    np.random.seed(0xE2EB0F)
    yield


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def affinity_rubis():
    """A RUBiS run with affinity dispatch (Figure 5 setup), 65 sim-seconds."""
    rubis = build_rubis(dispatch="affinity", seed=7, request_rate=10.0, config=FAST_CONFIG)
    rubis.run_until(65.0)
    return rubis


@pytest.fixture(scope="session")
def affinity_result(affinity_rubis):
    """Pathmap output over the affinity run."""
    return analyze_window(affinity_rubis.collector, affinity_rubis.config, end=63.0)


@pytest.fixture(scope="session")
def roundrobin_rubis():
    """A RUBiS run with round-robin dispatch (Figure 6 setup)."""
    rubis = build_rubis(dispatch="round_robin", seed=8, request_rate=10.0, config=FAST_CONFIG)
    rubis.run_until(65.0)
    return rubis


@pytest.fixture(scope="session")
def roundrobin_result(roundrobin_rubis):
    return analyze_window(roundrobin_rubis.collector, roundrobin_rubis.config, end=63.0)
