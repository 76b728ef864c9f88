"""Engine/backend registry contracts: errors, env precedence, threads.

The registries are process-global configuration surfaces; these tests
pin their observable contracts:

* unknown engine/backend names raise clean ``KeyError``s naming the
  known alternatives (and uninstalled-but-registered backends raise
  :class:`~repro.backend.BackendUnavailable` instead of ImportError);
* ``REPRO_ENGINE`` / ``REPRO_BACKEND`` env vars install the process
  default (which the serve runtime follows), while
  ``set_default_engine``/``set_default_backend`` override them for the
  session and ``None`` restores the env-var value;
* lookup/registration is thread-safe: named engines resolve to one
  singleton no matter how many threads race the first instantiation.
"""

import threading

import pytest

import repro.backend as backend_mod
import repro.dynamics.engine as engine_mod
from repro.backend import BackendUnavailable
from repro.dynamics.engine import (
    Engine,
    LoopEngine,
    available_engines,
    default_engine_name,
    get_engine,
    register_engine,
    set_default_engine,
)


class TestUnknownNames:
    def test_unknown_engine_get(self):
        with pytest.raises(KeyError, match="unknown engine 'cuda'"):
            get_engine("cuda")

    def test_unknown_engine_set_default(self):
        with pytest.raises(KeyError, match="known engines"):
            set_default_engine("fpga")

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="known backends"):
            backend_mod.get_backend("metal")

    def test_registered_but_uninstalled_backend(self):
        missing = [
            name for name in backend_mod.registered_backends()
            if name not in backend_mod.available_backends()
        ]
        if not missing:
            pytest.skip("every registered backend is installed here")
        with pytest.raises(BackendUnavailable, match="not installed"):
            backend_mod.get_backend(missing[0])

    def test_bad_env_value_reported_lazily(self, monkeypatch):
        """A bad REPRO_ENGINE must fail at first use, naming the var."""
        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        set_default_engine(None)  # re-read the env var
        try:
            with pytest.raises(KeyError, match="REPRO_ENGINE='warp-drive'"):
                default_engine_name()
        finally:
            monkeypatch.delenv("REPRO_ENGINE")
            set_default_engine(None)

    def test_bad_backend_env_reported_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "abacus")
        backend_mod.set_default_backend(None)
        try:
            with pytest.raises(KeyError, match="REPRO_BACKEND='abacus'"):
                backend_mod.default_backend_name()
        finally:
            monkeypatch.delenv("REPRO_BACKEND")
            backend_mod.set_default_backend(None)


class TestEnvPrecedence:
    def test_repro_engine_env_installs_pinned_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "loop")
        set_default_engine(None)  # adopt the env var
        try:
            assert default_engine_name() == "loop"
            assert isinstance(get_engine(), LoopEngine)
        finally:
            monkeypatch.delenv("REPRO_ENGINE")
            set_default_engine(None)
        assert default_engine_name() == "native"

    def test_set_default_overrides_env_and_none_restores_it(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE", "loop")
        set_default_engine(None)
        try:
            set_default_engine("compiled")
            assert default_engine_name() == "compiled"
            # Un-pinning restores the env var, not the built-in default.
            set_default_engine(None)
            assert default_engine_name() == "loop"
        finally:
            monkeypatch.delenv("REPRO_ENGINE")
            set_default_engine(None)

    def test_repro_backend_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        backend_mod.set_default_backend(None)
        try:
            assert backend_mod.default_backend_name() == "numpy"
            assert backend_mod.default_backend_explicit()
        finally:
            monkeypatch.delenv("REPRO_BACKEND")
            backend_mod.set_default_backend(None)
        assert not backend_mod.default_backend_explicit()

    def test_serve_honours_pinned_engine_env(self, monkeypatch):
        """The serve runtime follows the process default, so an
        explicit REPRO_ENGINE pin reaches it (same as set_default_engine)."""
        from repro.serve import DynamicsService

        monkeypatch.setenv("REPRO_ENGINE", "loop")
        set_default_engine(None)
        try:
            service = DynamicsService(n_shards=1)
            assert service.engine.name == "loop"
            service.close()
        finally:
            monkeypatch.delenv("REPRO_ENGINE")
            set_default_engine(None)


class TestThreadSafety:
    def test_concurrent_get_engine_is_singleton(self):
        # Drop any cached instance so threads race the instantiation.
        with engine_mod._REGISTRY_LOCK:
            engine_mod._ENGINES.pop("loop", None)
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append(get_engine("loop"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(e) for e in seen}) == 1

    def test_concurrent_register_and_list(self):
        class DummyEngine(LoopEngine):
            name = "dummy"

        errors = []
        barrier = threading.Barrier(8)

        def churn(k):
            barrier.wait()
            try:
                for _ in range(50):
                    register_engine(f"dummy{k}", DummyEngine)
                    assert f"dummy{k}" in available_engines()
                    assert isinstance(get_engine(f"dummy{k}"), Engine)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Clean the registry back up.
        with engine_mod._REGISTRY_LOCK:
            for k in range(8):
                engine_mod._ENGINE_FACTORIES.pop(f"dummy{k}", None)
                engine_mod._ENGINES.pop(f"dummy{k}", None)

    def test_concurrent_backend_resolution(self):
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append(backend_mod.get_backend("numpy"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(b) for b in seen}) == 1
