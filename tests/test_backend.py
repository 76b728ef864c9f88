"""The array-backend shim and the backend-parametrized equivalence suite.

Two halves:

* unit tests for :mod:`repro.backend` — registry resolution, graceful
  not-installed probing, namespace dispatch, the four wrapped ops; and
* the acceptance equivalence sweep — every Table-I function evaluated
  through a compiled plan on each *available* backend (and through the
  ``"process"`` engine) must match the ``"loop"`` reference to 1e-10
  across all library robots at batch 1 and 256, including the f_ext
  path.  A 256-task batch runs whole through the engine under test and
  is checked against ``loop`` on 16 rows (both ends plus 14 seeded
  others, :func:`reference_rows`).  Backends whose runtime is not
  installed (cupy/jax here) skip cleanly instead of erroring.
"""

import numpy as np
import pytest

from repro.backend import (
    BackendCapabilityError,
    BackendUnavailable,
    array_namespace,
    available_backends,
    backend_status,
    default_backend_name,
    get_backend,
    host_backend,
    registered_backends,
    set_default_backend,
    to_host,
)
from repro.dynamics import BatchStates, batch_evaluate, evaluate
from repro.dynamics.engine import CompiledEngine, get_engine
from repro.dynamics.functions import RBDFunction
from repro.model.library import ROBOT_REGISTRY, load_robot

TOL = dict(rtol=1e-10, atol=1e-10)
ROBOTS = sorted(ROBOT_REGISTRY)
FUNCTIONS = list(RBDFunction)


# ---------------------------------------------------------------------------
# Shim unit tests
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_registered_vs_available(self):
        assert registered_backends() == ("cupy", "jax", "numpy")
        assert "numpy" in available_backends()
        assert set(available_backends()) <= set(registered_backends())

    def test_numpy_always_resolves(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert backend is host_backend()
        assert backend.capabilities.inplace
        assert backend.capabilities.device == "cpu"

    def test_default_backend(self):
        assert default_backend_name() == "numpy"
        assert get_backend() is get_backend("numpy")
        assert get_backend(get_backend("numpy")).name == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("tpu9000")

    def test_uninstalled_backend_raises_backend_unavailable(self):
        for name in ("cupy", "jax"):
            if name in available_backends():
                pytest.skip(f"{name} is installed here")
            with pytest.raises(BackendUnavailable, match=name):
                get_backend(name)

    def test_probe_never_raises(self):
        status = backend_status()
        assert status["numpy"]["available"] is True
        for name in ("cupy", "jax"):
            assert "available" in status[name]
            if not status[name]["available"]:
                assert "not" in status[name]["detail"]

    def test_failed_probe_memoized(self, monkeypatch):
        """One import attempt per process: later lookups re-raise the
        memoized BackendUnavailable without re-running the factory."""
        from repro.backend import _BACKEND_FACTORIES, _BACKEND_FAILURES

        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            raise BackendUnavailable(
                "backend 'flaky_test' is not available: test stub"
            )

        monkeypatch.setitem(_BACKEND_FACTORIES, "flaky_test", factory)
        try:
            for _ in range(3):
                with pytest.raises(BackendUnavailable, match="flaky_test"):
                    get_backend("flaky_test")
            assert calls["n"] == 1
        finally:
            _BACKEND_FAILURES.pop("flaky_test", None)

    def test_set_default_backend_roundtrip(self):
        set_default_backend("numpy")
        try:
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(None)
        assert default_backend_name() == "numpy"

    def test_set_default_backend_validates(self):
        with pytest.raises((KeyError, BackendUnavailable)):
            set_default_backend("not-a-backend")


class TestNamespaceDispatch:
    def test_host_types_resolve_to_numpy(self):
        assert array_namespace(np.zeros(3)) is np
        assert array_namespace([1.0, 2.0]) is np
        assert array_namespace(1.5, np.zeros(2)) is np

    def test_to_host_passthrough(self):
        arr = np.arange(4.0)
        assert to_host(arr) is arr
        assert to_host(2.5) == 2.5


class TestOps:
    def test_einsum_matches_numpy_and_caches_paths(self):
        backend = get_backend("numpy")
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 6, 6))
        b = rng.normal(size=(5, 6))
        want = np.einsum("nij,nj->ni", a, b)
        np.testing.assert_allclose(
            backend.einsum("nij,nj->ni", a, b), want, **TOL
        )
        out = np.empty((5, 6))
        backend.einsum("nij,nj->ni", a, b, out=out)
        np.testing.assert_allclose(out, want, **TOL)
        assert "nij,nj->ni" in backend._einsum_paths

    def test_shim_is_the_ops_that_differ(self):
        """Kernels call ``xp`` directly; the backend object only wraps
        the four ops whose behaviour depends on the runtime."""
        from repro.backend import ArrayBackend

        public = {name for name in vars(ArrayBackend)
                  if not name.startswith("_") and callable(
                      getattr(ArrayBackend, name))}
        assert public == {"einsum", "jit", "scan", "to_numpy"}

    def test_jit_identity_and_scan_fallback(self):
        """numpy's jit is the identity; scan folds with stacked outputs."""
        backend = get_backend("numpy")
        assert not backend.capabilities.jit
        assert not backend.capabilities.scan
        fn = backend.jit(lambda x: x + 1)
        assert fn(1.0) == 2.0
        carry, ys = backend.scan(
            lambda c, x: (c + x, c), 0.0, xs=np.arange(4.0)
        )
        assert carry == 6.0
        np.testing.assert_allclose(ys, [0.0, 0.0, 1.0, 3.0], **TOL)
        # tuple-structured per-step outputs stack per leaf
        carry, (a, b) = backend.scan(
            lambda c, x: (c + x, (c, 2 * x)), 0.0, xs=np.arange(3.0)
        )
        np.testing.assert_allclose(a, [0.0, 0.0, 1.0], **TOL)
        np.testing.assert_allclose(b, [0.0, 2.0, 4.0], **TOL)


# ---------------------------------------------------------------------------
# Backend-parametrized equivalence (the acceptance sweep)
# ---------------------------------------------------------------------------


@pytest.fixture(params=["numpy", "cupy", "jax"], scope="module")
def backend_name(request):
    """Each registered backend; uninstalled runtimes skip cleanly."""
    if request.param not in available_backends():
        pytest.skip(f"backend {request.param!r} is not installed")
    backend = get_backend(request.param)
    if not backend.capabilities.inplace:
        pytest.skip(
            f"backend {request.param!r} has immutable arrays; the "
            "compiled engine declines it (see test_jax_declined_cleanly)"
        )
    return request.param


def test_jax_declined_cleanly():
    """If jax *is* installed, the compiled engine must refuse it with a
    capability error, not die mid-kernel."""
    if "jax" not in available_backends():
        pytest.skip("jax is not installed")
    from repro.dynamics.plan import plan_for

    with pytest.raises(BackendCapabilityError, match="inplace"):
        plan_for(load_robot("pendulum"), "jax")


def _batch_inputs(model, function, n, seed=0):
    rng = np.random.default_rng(seed)
    states = BatchStates.random(model, n, seed=seed)
    u = rng.normal(size=(n, model.nv))
    minv = None
    if function is RBDFunction.DIFD:
        minv = np.stack([
            evaluate(model, RBDFunction.MINV, states.q[k]) for k in range(n)
        ])
    return states, u, minv


_LOOP_CACHE: dict = {}


def reference_rows(n):
    """Rows of an ``n``-task batch checked against ``loop``: all of a
    small batch; both ends plus 14 seeded others of a large one.  The
    engine under test still runs the whole batch."""
    if n <= 16:
        return np.arange(n)
    inner = np.random.default_rng(71).choice(np.arange(1, n - 1), 14,
                                             replace=False)
    return np.sort(np.concatenate([[0, n - 1], inner]))


def loop_reference(robot, function, n):
    """Memoized loop-engine results on ``reference_rows(n)`` of the
    ``_batch_inputs`` batch, shared across backend/process/jit cases."""
    key = (robot, function, n)
    if key not in _LOOP_CACHE:
        model = load_robot(robot)
        states, u, minv = _batch_inputs(model, function, n)
        rows = reference_rows(n)
        _LOOP_CACHE[key] = batch_evaluate(
            model, function, BatchStates(states.q[rows], states.qd[rows]),
            u[rows], minv=None if minv is None else minv[rows],
            engine="loop",
        )
    return _LOOP_CACHE[key]


def assert_matches_loop(robot, function, n, got):
    """A full ``n``-task result ``got`` == loop on the reference rows."""
    assert len(got) == n
    assert_results_match(function, [got[k] for k in reference_rows(n)],
                         loop_reference(robot, function, n))


def assert_results_match(function, got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if hasattr(a, "dqdd_dq"):
            np.testing.assert_allclose(a.qdd, b.qdd, **TOL)
            np.testing.assert_allclose(a.dqdd_dq, b.dqdd_dq, **TOL)
            np.testing.assert_allclose(a.dqdd_dqd, b.dqdd_dqd, **TOL)
            np.testing.assert_allclose(a.dqdd_dtau, b.dqdd_dtau, **TOL)
        elif hasattr(a, "dtau_dq"):
            np.testing.assert_allclose(a.dtau_dq, b.dtau_dq, **TOL)
            np.testing.assert_allclose(a.dtau_dqd, b.dtau_dqd, **TOL)
        else:
            np.testing.assert_allclose(np.asarray(a), np.asarray(b), **TOL)


@pytest.mark.parametrize("n", [1, 256])
@pytest.mark.parametrize("robot", ROBOTS)
def test_compiled_on_backend_matches_loop(backend_name, robot, n):
    """Compiled plans on every available backend == loop, all robots,
    all seven functions, singleton and full accelerator batches."""
    model = load_robot(robot)
    engine = CompiledEngine(backend=backend_name)
    for function in FUNCTIONS:
        states, u, minv = _batch_inputs(model, function, n)
        got = batch_evaluate(model, function, states, u, minv=minv,
                             engine=engine)
        assert_matches_loop(robot, function, n, got)


@pytest.mark.parametrize(
    "function",
    [RBDFunction.ID, RBDFunction.FD, RBDFunction.DFD],
    ids=lambda f: f.value,
)
def test_compiled_on_backend_f_ext(backend_name, function):
    """The external-force path agrees on every available backend."""
    model = load_robot("hyq")
    n = 6
    states, u, _ = _batch_inputs(model, function, n, seed=11)
    rng = np.random.default_rng(12)
    f_ext = {0: rng.normal(size=(n, 6)), model.nb - 1: rng.normal(size=6)}
    engine = CompiledEngine(backend=backend_name)
    got = batch_evaluate(model, function, states, u, f_ext=f_ext,
                         engine=engine)
    want = batch_evaluate(model, function, states, u, f_ext=f_ext,
                          engine="loop")
    assert_results_match(function, got, want)


def test_plan_memo_keyed_by_backend(backend_name):
    from repro.dynamics.plan import plan_for

    model = load_robot("pendulum")
    plan = plan_for(model, backend_name)
    assert plan is plan_for(model, backend_name)
    assert plan.backend.name == backend_name
    assert plan.describe()["backend"] == backend_name
    host_plan = plan_for(model)  # default backend
    assert host_plan is plan_for(model, "numpy")


def test_default_engine_unaffected_by_backend_param(backend_name):
    """Constructing backend engines must not leak into the default."""
    CompiledEngine(backend=backend_name)
    assert get_engine("compiled").backend_name == default_backend_name()
