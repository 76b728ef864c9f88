"""Equivalence suite for the batch execution engines.

The default ``compiled`` engine must be numerically interchangeable with
the ``loop`` reference engine — same Table-I function, same robot, same
batch — to 1e-10, including the batch-size extremes the serve runtime
produces (singleton flushes and full 256-task accelerator loads) and the
external-force path.
"""

import numpy as np
import pytest

from repro.dynamics import (
    BatchStates,
    batch_evaluate,
    evaluate,
)
from repro.dynamics.engine import (
    CompiledEngine,
    Engine,
    LoopEngine,
    available_engines,
    default_engine_name,
    get_engine,
    normalize_f_ext,
    set_default_engine,
)
from repro.dynamics.functions import RBDFunction
from repro.model.library import ROBOT_REGISTRY, load_robot

TOL = dict(rtol=1e-10, atol=1e-10)
ROBOTS = sorted(ROBOT_REGISTRY)
FUNCTIONS = list(RBDFunction)


def _batch_inputs(model, function, n, seed=0):
    """(states, u, minv) operands for one batched call of ``function``."""
    rng = np.random.default_rng(seed)
    states = BatchStates.random(model, n, seed=seed)
    u = rng.normal(size=(n, model.nv))
    minv = None
    if function is RBDFunction.DIFD:
        minv = np.stack([
            evaluate(model, RBDFunction.MINV, states.q[k])
            for k in range(n)
        ])
    return states, u, minv


def _compare(function, got, want):
    """Assert two batch_evaluate result lists agree to 1e-10."""
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
            np.testing.assert_allclose(a, b, **TOL)


def _loop_rows(model, function, states, u, minv, f_ext, rows):
    """The loop reference on a subset of a batch's task rows."""
    return batch_evaluate(
        model, function, BatchStates(states.q[rows], states.qd[rows]),
        u[rows], minv=None if minv is None else minv[rows],
        f_ext=f_ext and {link: f if f.ndim == 1 else f[rows]
                         for link, f in f_ext.items()},
        engine="loop",
    )


class TestEngineEquivalence:
    """compiled == loop on every robot x function the library knows."""

    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.value)
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_every_robot_and_function(self, robot, function):
        """n = 1 and n = 256 with external forces, on every robot.

        The 256-task batch runs whole on the compiled engine; the loop
        reference checks a seeded sample of its rows, which keeps the
        full robot x function grid cheap enough for the tier-1 suite.
        """
        model = load_robot(robot)
        rng = np.random.default_rng(30)
        for n in (1, 256):
            states, u, minv = _batch_inputs(model, function, n=n, seed=3)
            f_ext = None
            if function not in (RBDFunction.M, RBDFunction.MINV):
                f_ext = {
                    0: rng.normal(size=(n, 6)),        # per-task stack
                    model.nb - 1: rng.normal(size=6),  # shared by all
                }
            comp = batch_evaluate(model, function, states, u, minv=minv,
                                  f_ext=f_ext, engine="compiled")
            rows = np.sort(rng.choice(n, min(n, 8), replace=False))
            loop = _loop_rows(model, function, states, u, minv, f_ext,
                              rows)
            _compare(function, [comp[k] for k in rows], loop)

    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [1, 256])
    def test_batch_size_extremes(self, function, n):
        """Singleton flushes and full accelerator loads agree on a
        floating-base tree (hyq), through the process-default engine
        (the first, middle and last rows against the loop reference)."""
        model = load_robot("hyq")
        states, u, minv = _batch_inputs(model, function, n=n, seed=5)
        default = batch_evaluate(model, function, states, u, minv=minv)
        rows = np.unique([0, n // 2, n - 1])
        loop = _loop_rows(model, function, states, u, minv, None, rows)
        _compare(function, [default[k] for k in rows], loop)

    @pytest.mark.parametrize(
        "function",
        [RBDFunction.ID, RBDFunction.FD, RBDFunction.DID, RBDFunction.DFD],
        ids=lambda f: f.value,
    )
    @pytest.mark.parametrize("robot", ["iiwa", "hyq"])
    def test_external_force_path(self, robot, function):
        """External forces on *every* link, per-task (n, 6) and shared
        (6,) stacks mixed, agree."""
        model = load_robot(robot)
        states, u, _ = _batch_inputs(model, function, n=6, seed=7)
        rng = np.random.default_rng(8)
        f_ext = {
            link: rng.normal(size=(6, 6) if link % 2 else 6)
            for link in range(model.nb)
        }
        loop = batch_evaluate(model, function, states, u, f_ext=f_ext,
                              engine="loop")
        comp = batch_evaluate(model, function, states, u, f_ext=f_ext,
                              engine="compiled")
        _compare(function, comp, loop)

    def test_external_force_matches_scalar_reference(self):
        """The batched f_ext path agrees with per-task scalar evaluate."""
        model = load_robot("iiwa")
        n = 3
        states, u, _ = _batch_inputs(model, RBDFunction.ID, n, seed=9)
        rng = np.random.default_rng(10)
        stack = rng.normal(size=(n, 6))
        comp = batch_evaluate(model, RBDFunction.ID, states, u,
                              f_ext={2: stack}, engine="compiled")
        for k in range(n):
            direct = evaluate(model, RBDFunction.ID, states.q[k],
                              states.qd[k], u[k], f_ext={2: stack[k]})
            np.testing.assert_allclose(comp[k], direct, **TOL)

    def test_bad_f_ext_shape_rejected(self):
        with pytest.raises(ValueError, match="f_ext"):
            normalize_f_ext({0: np.zeros((3, 5))}, 3)


class TestEngineSelection:
    def test_registry_contents(self):
        assert available_engines() == ("compiled", "jit", "loop", "native",
                                       "process")
        assert isinstance(get_engine("loop"), LoopEngine)
        assert isinstance(get_engine("compiled"), CompiledEngine)

    def test_default_is_native(self):
        # The native engine subclasses CompiledEngine.
        assert default_engine_name() == "native"
        assert isinstance(get_engine(), CompiledEngine)
        assert isinstance(get_engine(None), CompiledEngine)

    def test_instance_passthrough(self):
        engine = get_engine("loop")
        assert get_engine(engine) is engine
        assert isinstance(engine, Engine)

    def test_set_default_engine_roundtrip(self):
        set_default_engine("loop")
        try:
            assert default_engine_name() == "loop"
            assert isinstance(get_engine(), LoopEngine)
        finally:
            # Reset so later tests (e.g. the serve default) see the
            # unmodified process default again.
            set_default_engine(None)
        assert default_engine_name() == "native"

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="unknown engine"):
            get_engine("cuda")
        with pytest.raises(KeyError, match="unknown engine"):
            set_default_engine("cuda")

    def test_default_engine_used_by_batch_evaluate(self):
        """Per-call selection overrides the process default."""
        model = load_robot("double_pendulum")
        states, u, _ = _batch_inputs(model, RBDFunction.FD, 2, seed=1)
        by_default = batch_evaluate(model, RBDFunction.FD, states, u)
        by_name = batch_evaluate(model, RBDFunction.FD, states, u,
                                 engine="compiled")
        for a, b in zip(by_default, by_name):
            np.testing.assert_allclose(a, b, rtol=0, atol=0)
