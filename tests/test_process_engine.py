"""Equivalence and lifecycle tests for the ``"process"`` engine.

The pool is forced to two workers with ``min_chunk=1`` so the *real*
IPC path — spawn-started workers, pickled models, shared-memory operand
stacks, chunked execution — is exercised even on a single-core runner
(where the default configuration would correctly fall back to inline
execution).  One pool is shared by the whole module; workers stay warm
across robots, mirroring serve traffic.
"""

import numpy as np
import pytest

from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.functions import RBDFunction
from repro.dynamics.process import ProcessEngine
from repro.model.library import ROBOT_REGISTRY, load_robot

from test_backend import (
    _batch_inputs,
    assert_matches_loop,
    assert_results_match,
)

TOL = dict(rtol=1e-10, atol=1e-10)
ROBOTS = sorted(ROBOT_REGISTRY)
FUNCTIONS = list(RBDFunction)


@pytest.fixture(scope="module")
def pool_engine():
    """A 2-worker pool exercising the real spawn + shared-memory path."""
    engine = ProcessEngine(n_workers=2, min_chunk=1)
    yield engine
    engine.shutdown()


@pytest.mark.parametrize("n", [1, 256])
@pytest.mark.parametrize("robot", ROBOTS)
def test_process_matches_loop(pool_engine, robot, n):
    """process == loop, all robots, all seven functions, batch 1/256.

    Batch 1 runs inline (one row cannot split across two workers — the
    degenerate path must be equivalent too); batch 256 splits 128/128
    across the worker pool.
    """
    model = load_robot(robot)
    for function in FUNCTIONS:
        states, u, minv = _batch_inputs(model, function, n)
        got = batch_evaluate(model, function, states, u, minv=minv,
                             engine=pool_engine)
        assert_matches_loop(robot, function, n, got)
    if n == 256:
        assert pool_engine.started


@pytest.mark.parametrize(
    "function",
    [RBDFunction.ID, RBDFunction.FD, RBDFunction.DID, RBDFunction.DFD],
    ids=lambda f: f.value,
)
def test_process_f_ext_path(pool_engine, function):
    """External forces survive the shared-memory packing."""
    model = load_robot("hyq")
    n = 8
    states, u, _ = _batch_inputs(model, function, n, seed=21)
    rng = np.random.default_rng(22)
    f_ext = {0: rng.normal(size=(n, 6)), model.nb - 1: rng.normal(size=6)}
    got = batch_evaluate(model, function, states, u, f_ext=f_ext,
                         engine=pool_engine)
    want = batch_evaluate(model, function, states, u, f_ext=f_ext,
                          engine="loop")
    assert_results_match(function, got, want)


def test_non_contiguous_float32_operands(pool_engine):
    """The batch boundary coerces exotic operand layouts before the
    engines (including the shared-memory packer) see them."""
    model = load_robot("iiwa")
    n = 64
    rng = np.random.default_rng(5)
    q64 = np.stack([model.random_q(rng) for _ in range(n)])
    # float32 q, and a qd that is a column-sliced (non-contiguous) view.
    q32 = q64.astype(np.float32)
    qd_wide = rng.normal(size=(n, 2 * model.nv))
    qd_view = qd_wide[:, ::2]
    assert not qd_view.flags["C_CONTIGUOUS"]
    states = BatchStates(q32, qd_view)
    assert states.q.dtype == np.float64
    assert states.q.flags["C_CONTIGUOUS"]
    assert states.qd.flags["C_CONTIGUOUS"]
    u = rng.normal(size=(n, model.nv))
    got = batch_evaluate(model, RBDFunction.FD, states, u,
                         engine=pool_engine)
    want = batch_evaluate(model, RBDFunction.FD, states, u, engine="loop")
    assert_results_match(RBDFunction.FD, got, want)


def test_inline_fallback_below_chunk_threshold():
    """Small batches never pay for the pool (no workers started)."""
    engine = ProcessEngine(n_workers=2, min_chunk=64)
    model = load_robot("iiwa")
    states, u, _ = _batch_inputs(model, RBDFunction.FD, 32, seed=3)
    got = batch_evaluate(model, RBDFunction.FD, states, u, engine=engine)
    assert_results_match(RBDFunction.FD, got,
                         batch_evaluate(model, RBDFunction.FD, states, u,
                                        engine="loop"))
    assert not engine.started


def test_single_worker_pool_runs_inline():
    engine = ProcessEngine(n_workers=1, min_chunk=1)
    model = load_robot("pendulum")
    states, u, _ = _batch_inputs(model, RBDFunction.ID, 16, seed=4)
    batch_evaluate(model, RBDFunction.ID, states, u, engine=engine)
    assert not engine.started


def test_worker_error_propagates(pool_engine):
    """A worker-side failure surfaces as one parent-side error carrying
    the worker traceback, and the pool stays usable afterwards."""
    model = load_robot("iiwa")
    states, u, _ = _batch_inputs(model, RBDFunction.FD, 64, seed=6)
    # Malformed operands are rejected at the batch boundary before any
    # worker sees them, so poison the engine directly: an f_ext link
    # index out of range fails inside the worker's kernel.
    with pytest.raises(RuntimeError, match="worker failed"):
        pool_engine.fd_batch(
            model, states.q, states.qd, u,
            {model.nb + 99: np.zeros((64, 6))},  # link index out of range
        )
    # Pool survives and still computes correctly.
    got = batch_evaluate(model, RBDFunction.FD, states, u,
                         engine=pool_engine)
    assert_results_match(
        RBDFunction.FD, got,
        batch_evaluate(model, RBDFunction.FD, states, u, engine="loop"),
    )


def test_shutdown_and_restart():
    engine = ProcessEngine(n_workers=2, min_chunk=1)
    model = load_robot("pendulum")
    states, u, _ = _batch_inputs(model, RBDFunction.FD, 8, seed=7)
    first = batch_evaluate(model, RBDFunction.FD, states, u, engine=engine)
    assert engine.started
    engine.shutdown()
    assert not engine.started
    again = batch_evaluate(model, RBDFunction.FD, states, u, engine=engine)
    assert engine.started
    for a, b in zip(first, again):
        np.testing.assert_allclose(a, b, rtol=0, atol=0)
    engine.shutdown()


def test_registered_in_engine_registry():
    from repro.dynamics.engine import available_engines, get_engine

    assert "process" in available_engines()
    engine = get_engine("process")
    assert isinstance(engine, ProcessEngine)
    assert get_engine("process") is engine  # singleton
