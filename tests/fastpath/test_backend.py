"""Backend selection: gated numba import, env override, gauge reporting.

The container running CI has no numba, so the live import already
exercises the fallback; the tests below also *force* the failure path
with a poisoned ``sys.modules`` entry so the fallback stays covered even
on machines where numba happens to be installed.
"""

import importlib
import importlib.util
import sys

import numpy as np
import pytest

from repro.core.basis import basis_matrix
from repro.fastpath import (
    BACKENDS,
    available_backends,
    backend_name,
    describe,
    phi_block,
    register_backend_gauge,
    set_backend,
)
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry


def _fresh_modules(monkeypatch, env: str | None):
    """Import fresh copies of ``_numba`` + ``backend`` with numba poisoned.

    ``sys.modules["numba"] = None`` makes ``import numba`` raise
    ImportError deterministically, whether or not numba is installed.
    The canonical modules (and the package attributes pointing at them)
    are restored afterwards, so the rest of the suite is unaffected.
    """
    import repro.fastpath as pkg

    original_numba = sys.modules["repro.fastpath._numba"]
    original_backend = sys.modules["repro.fastpath.backend"]
    monkeypatch.setitem(sys.modules, "numba", None)
    if env is None:
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_FASTPATH", env)
    monkeypatch.delitem(sys.modules, "repro.fastpath._numba")
    monkeypatch.delitem(sys.modules, "repro.fastpath.backend")
    try:
        fresh_numba = importlib.import_module("repro.fastpath._numba")
        fresh_backend = importlib.import_module("repro.fastpath.backend")
    finally:
        sys.modules["repro.fastpath._numba"] = original_numba
        sys.modules["repro.fastpath.backend"] = original_backend
        pkg._numba = original_numba
        pkg.backend = original_backend
    return fresh_numba, fresh_backend


class TestImportTimeSelection:
    def test_numba_import_failure_falls_back_to_numpy(self, monkeypatch):
        fresh_numba, fresh_backend = _fresh_modules(monkeypatch, env=None)
        assert fresh_numba.HAVE_NUMBA is False
        assert fresh_numba.phi_block_kernel is None
        assert fresh_backend.backend_name() == "numpy"
        assert "numba" not in fresh_backend.available_backends()

    def test_fallback_answers_match_reference(self, monkeypatch):
        _, fresh_backend = _fresh_modules(monkeypatch, env=None)
        positions = np.random.default_rng(0).uniform(0.0, 1.0, size=128)
        np.testing.assert_allclose(
            fresh_backend.phi_block(96, positions),
            basis_matrix(np.arange(96), positions),
            rtol=0.0,
            atol=1e-9,
        )

    def test_fallback_gauge_reports_numpy(self, monkeypatch):
        _, fresh_backend = _fresh_modules(monkeypatch, env=None)
        registry = MetricsRegistry()
        fresh_backend.register_backend_gauge(registry)
        family = registry.get("repro_fastpath_backend")
        assert family.labels("numpy").value == 1.0
        assert family.labels("numba").value == 0.0
        assert family.labels("reference").value == 0.0

    def test_env_requesting_numba_without_numba_falls_back(self, monkeypatch):
        _, fresh_backend = _fresh_modules(monkeypatch, env="numba")
        assert fresh_backend.backend_name() == "numpy"

    @pytest.mark.parametrize("env", ["auto", ""])
    def test_env_auto_keeps_automatic_choice(self, monkeypatch, env):
        _, fresh_backend = _fresh_modules(monkeypatch, env=env)
        assert fresh_backend.backend_name() == "numpy"

    def test_env_reference_is_honoured(self, monkeypatch):
        _, fresh_backend = _fresh_modules(monkeypatch, env="reference")
        assert fresh_backend.backend_name() == "reference"

    def test_env_unknown_backend_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="REPRO_FASTPATH"):
            _fresh_modules(monkeypatch, env="cython")


class TestSetBackend:
    def test_switch_to_reference_and_back(self):
        previous = set_backend("reference")
        assert previous == "numpy"
        assert backend_name() == "reference"
        positions = np.linspace(0.0, 1.0, 32)
        assert np.array_equal(
            phi_block(8, positions), basis_matrix(np.arange(8), positions)
        )
        assert set_backend(previous) == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cython")

    @pytest.mark.skipif(
        importlib.util.find_spec("numba") is not None, reason="numba is installed"
    )
    def test_explicit_numba_request_raises_without_numba(self):
        with pytest.raises(RuntimeError, match="numba"):
            set_backend("numba")


class TestGauge:
    def test_gauge_follows_backend_switches(self):
        registry = MetricsRegistry()
        register_backend_gauge(registry)
        family = registry.get("repro_fastpath_backend")
        assert family.labels(backend_name()).value == 1.0
        set_backend("reference")
        assert family.labels("reference").value == 1.0
        assert family.labels("numpy").value == 0.0

    def test_telemetry_registers_the_gauge(self):
        telemetry = Telemetry()
        family = telemetry.registry.get("repro_fastpath_backend")
        assert family is not None
        assert family.labels(backend_name()).value == 1.0

    def test_disabled_telemetry_skips_the_gauge(self):
        telemetry = Telemetry.disabled()
        assert telemetry.registry.get("repro_fastpath_backend") is None


class TestDescribe:
    def test_describe_shape(self):
        info = describe()
        assert info["backend"] in BACKENDS
        assert set(info["available"]).issubset(set(BACKENDS))
        assert "numpy" in info["available"] and "reference" in info["available"]
        assert isinstance(info["numba_importable"], bool)

    def test_available_matches_numba_presence(self):
        has_numba = importlib.util.find_spec("numba") is not None
        assert ("numba" in available_backends()) == has_numba
