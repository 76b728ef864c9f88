"""The native engine: generated C kernels, their build cache, fallbacks.

Equivalence follows ``test_backend``'s contract: ``native`` == ``loop``
at 1e-10.  All seven functions -- ID, M, Minv, FD and the derivatives
dID, dFD and diFD -- run in C at batch 1 and 256 (with and without
per-task f_ext) on every library robot, random trees and a floating
joint below a revolute root.  Rerooted atlas (ScrewJoint) and split hyq
(Spherical + Translation3) have joints the generator does not emit and
must match ``loop`` through the fallback.  Assertions about C itself
skip cleanly on hosts without ``cc``.
"""

import itertools
import os
import threading

import numpy as np
import pytest

from test_backend import (
    ROBOTS,
    _batch_inputs,
    assert_matches_loop,
    assert_results_match,
    reference_rows,
)
from test_jit_engine import (
    _assert_matches_loop,
    _level_forces,
    floating_under_revolute,
)

from repro import obs
from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics import native
from repro.dynamics.engine import default_engine_name, get_engine
from repro.dynamics.functions import RBDFunction
from repro.dynamics.native import NativeEngine, generate_source
from repro.dynamics.plan import plan_for
from repro.model.library import load_robot, random_tree
from repro.model.topology import reroot, split_floating_base
from repro.serve import DynamicsService

HAS_CC = native.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")

C_FUNCTIONS = list(RBDFunction)


@pytest.fixture(scope="module")
def engine():
    return get_engine("native")


def test_native_is_the_default(engine):
    assert default_engine_name() == "native"
    assert isinstance(engine, NativeEngine)
    assert engine.backend_name == "numpy"


@needs_cc
@pytest.mark.parametrize("robot", ROBOTS)
def test_library_robots_run_c(engine, robot):
    assert engine.status(load_robot(robot)) == "C"


@pytest.mark.parametrize("n", [1, 256])
@pytest.mark.parametrize("robot", ROBOTS)
def test_native_matches_loop(engine, robot, n):
    """All seven C functions at batch 1 and 256."""
    model = load_robot(robot)
    for function in C_FUNCTIONS:
        states, u, minv = _batch_inputs(model, function, n)
        got = batch_evaluate(model, function, states, u, minv=minv,
                             engine=engine)
        assert_matches_loop(robot, function, n, got)


@pytest.mark.parametrize("n", [1, 256])
@pytest.mark.parametrize("function", [RBDFunction.ID, RBDFunction.FD,
                                      RBDFunction.DID, RBDFunction.DFD,
                                      RBDFunction.DIFD],
                         ids=lambda f: f.value)
def test_native_f_ext(engine, function, n):
    """Per-task forces on every non-root level (siblings under a shared
    parent included), plus a force shared by all tasks on the root."""
    for model in (load_robot("hyq"), load_robot("atlas"),
                  floating_under_revolute()):
        states, u, minv = _batch_inputs(model, function, n, seed=11)
        f_ext = _level_forces(model, n, np.random.default_rng(12))
        got = batch_evaluate(model, function, states, u, minv=minv,
                             f_ext=f_ext, engine=engine)
        rows = reference_rows(n)
        want = batch_evaluate(
            model, function, BatchStates(states.q[rows], states.qd[rows]),
            u[rows], minv=None if minv is None else minv[rows],
            engine="loop",
            f_ext={link: np.broadcast_to(f, (n, 6))[rows]
                   for link, f in f_ext.items()})
        assert_results_match(function, [got[k] for k in rows], want)


def _assert_rows_match_loop(engine, model, seed=0):
    """All seven functions at batch 1 and 256, checked against ``loop``
    at :func:`reference_rows`."""
    for n, function in itertools.product([1, 256], C_FUNCTIONS):
        rows = reference_rows(n)
        states, u, minv = _batch_inputs(model, function, n, seed=seed)
        got = batch_evaluate(model, function, states, u, minv=minv,
                             engine=engine)
        want = batch_evaluate(
            model, function, BatchStates(states.q[rows], states.qd[rows]),
            u[rows], minv=None if minv is None else minv[rows],
            engine="loop")
        assert_results_match(function, [got[k] for k in rows], want)


@pytest.mark.parametrize("n", [1, 256])
def test_native_difd_with_and_without_minv(engine, n):
    """diFD computes Minv when none is given (matching ``loop``, which
    is given one) and takes a supplied Minv as is."""
    function = RBDFunction.DIFD
    for robot in ("hyq", "atlas"):
        model = load_robot(robot)
        # The diFD inputs without their Minv stack: same states and u.
        states, u, _ = _batch_inputs(model, RBDFunction.DFD, n)
        got = batch_evaluate(model, function, states, u, engine=engine)
        assert_matches_loop(robot, function, n, got)
        minv = engine.minv_batch(model, states.q)
        given = engine.difd_batch(model, states.q, states.qd, u, minv)
        computed = engine.difd_batch(model, states.q, states.qd, u)
        assert given[3] is minv
        for a, b in zip(given, computed):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@needs_cc
@pytest.mark.parametrize("function", [RBDFunction.DID, RBDFunction.DFD,
                                      RBDFunction.DIFD],
                         ids=lambda f: f.value)
def test_native_derivatives_book_native_spans(engine, function):
    """A derivative runs as one C call: its only kernel span is
    ``rnea_derivatives`` marked ``impl=native``.  A silent fallback to
    the numpy plans books its transform, RNEA and MMinvGen sweeps and an
    unmarked ``rnea_derivatives`` span, and fails here."""
    model = load_robot("hyq")
    states, u, minv = _batch_inputs(model, function, 2)
    tracer = obs.Tracer()
    with obs.profiled(tracer=tracer) as prof:
        batch_evaluate(model, function, states, u, minv=minv, engine=engine)
    kernels = {k for robot, k in prof.breakdown()
               if not k.startswith("dispatch.")}
    assert kernels == {"rnea_derivatives"}
    spans = [s for s in tracer.spans() if s.name == "hyq.rnea_derivatives"]
    assert [s.args for s in spans] == [{"rows": 2, "impl": "native"}]


@pytest.mark.parametrize("seed", range(4))
def test_native_random_trees(engine, seed):
    model = random_tree(9, seed=seed, floating=(seed % 2 == 0))
    _assert_rows_match_loop(engine, model, seed=seed)
    if HAS_CC:
        assert engine.status(model) == "C"


def test_native_floating_joint_below_root(engine):
    model = floating_under_revolute()
    _assert_rows_match_loop(engine, model)
    if HAS_CC:
        assert engine.status(model) == "C"


@pytest.mark.parametrize("make, joints", [
    (lambda: reroot(load_robot("atlas"), "torso2"), "ScrewJoint"),
    (lambda: split_floating_base(load_robot("hyq")),
     "SphericalJoint, Translation3Joint"),
], ids=["rerooted", "split_base"])
def test_unsupported_joints_fall_back(engine, make, joints):
    model = make()
    _assert_matches_loop(engine, model, n=2)
    status = engine.status(model)
    assert status.startswith("compiled (unsupported joint")
    assert joints in status
    assert engine.kernels(model) is None


def test_source_is_byte_identical_per_structure():
    a = plan_for(load_robot("atlas", fresh=True))
    b = plan_for(load_robot("atlas", fresh=True))
    assert a is not b
    assert a.structure_hash() == b.structure_hash()
    assert (generate_source(a, "k").encode()
            == generate_source(b, "k").encode())
    assert generate_source(a, "k") != generate_source(
        plan_for(load_robot("hyq")), "k")


@needs_cc
def test_two_threads_build_one_library(monkeypatch, tmp_path):
    """First calls racing on an empty cache compile once and share it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    eng = NativeEngine()
    model = load_robot("iiwa")
    states, u, _ = _batch_inputs(model, RBDFunction.FD, 4)
    barrier = threading.Barrier(2)
    results = [None, None]

    def first_call(slot):
        barrier.wait()
        results[slot] = eng.fd_batch(model, states.q, states.qd, u)

    threads = [threading.Thread(target=first_call, args=(i,))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert eng.builds == 1
    assert eng.fallbacks == {}
    built = list((tmp_path / "repro-native").iterdir())
    assert sorted(p.suffix for p in built) == [".c", ".so"]
    want = batch_evaluate(model, RBDFunction.FD, states, u, engine="loop")
    for got in results:
        assert_results_match(RBDFunction.FD, list(got), want)
    # A second engine loads the library without running the compiler.
    def no_spawn(*args, **kwargs):
        raise AssertionError(f"warm load ran {args[0]}")

    monkeypatch.setattr(native.subprocess, "run", no_spawn)
    again = NativeEngine()
    assert again.status(model) == "C"
    assert again.builds == 0


def _assert_fallback_matches_loop(eng, reason, robots=ROBOTS):
    for robot in robots:
        model = load_robot(robot)
        for function in C_FUNCTIONS:
            states, u, minv = _batch_inputs(model, function, 2)
            got = batch_evaluate(model, function, states, u, minv=minv,
                                 engine=eng)
            want = batch_evaluate(model, function, states, u, minv=minv,
                                  engine="loop")
            assert_results_match(function, got, want)
        assert eng.kernels(model) is None
        assert reason in eng.fallbacks[robot]


def test_no_compiler_falls_back(monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    eng = NativeEngine()
    _assert_fallback_matches_loop(eng, "no C compiler")
    assert eng.status(load_robot("iiwa")).startswith("compiled (no C")


def test_scratch_over_stack_budget_falls_back(monkeypatch):
    """The budget is checked against the derivative kernels' scratch,
    the largest: one byte short of it, a robot falls back even though
    every other kernel's scratch fits."""
    for robot in ("iiwa", "atlas"):
        model = load_robot(robot)
        sizes = native._kernel_stack_bytes(model.nb, model.nv)
        derivatives = sizes.pop("derivatives")
        assert max(sizes.values()) < derivatives
        assert derivatives == native._stack_bytes(model.nb, model.nv)
        monkeypatch.setattr(native, "MAX_STACK_BYTES", derivatives - 1)
        _assert_fallback_matches_loop(NativeEngine(), "stack budget",
                                      [robot])


@needs_cc
def test_unwritable_cache_falls_back(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(blocker))
    _assert_fallback_matches_loop(NativeEngine(),
                                  "no usable cache directory")


@needs_cc
def test_libraries_others_can_write_are_not_loaded(monkeypatch, tmp_path):
    """A world-writable cache directory is skipped for the per-user temp
    one, and a library others could swap is rebuilt, never loaded."""
    shared = tmp_path / "xdg" / "repro-native"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native.tempfile, "gettempdir",
                        lambda: str(tmp_path / "tmp"))
    model = load_robot("pendulum")
    plan = plan_for(model)
    compiler = native.find_compiler()
    key = native.cache_key(plan, compiler)
    planted = native.build(plan, key, compiler, shared)

    eng = NativeEngine()
    assert eng.status(model) == "C"
    assert eng.builds == 1
    own = native.library_dir()
    assert own == tmp_path / "tmp" / f"repro-native-{os.getuid()}"
    assert own.stat().st_mode & 0o077 == 0
    lib = own / planted.name
    assert lib.is_file()

    lib.chmod(0o777)
    again = NativeEngine()
    assert again.status(model) == "C"
    assert again.builds == 1
    assert lib.stat().st_mode & 0o022 == 0
    _assert_matches_loop(again, model, n=2)


@needs_cc
def test_foreign_cache_directories_fall_back(monkeypatch, tmp_path):
    """Directories another user owns are never used: with both the user
    cache and the temp fallback owned by someone else, every robot runs
    the compiled plans."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
    other = os.getuid() + 1
    (tmp_path / "xdg" / "repro-native").mkdir(parents=True)
    (tmp_path / f"repro-native-{other}").mkdir()
    monkeypatch.setattr(native.os, "getuid", lambda: other)
    _assert_fallback_matches_loop(NativeEngine(), "not private to this user")


def test_compile_error_falls_back(monkeypatch, tmp_path):
    """A compiler that fails is a per-robot fallback, not an op error."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    fake = tmp_path / "cc"
    fake.write_text("#!/bin/sh\necho 'cc: broken' >&2\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setattr(native, "find_compiler", lambda: str(fake))
    eng = NativeEngine()
    _assert_fallback_matches_loop(eng, "compile failed")
    assert "cc: broken" in eng.fallbacks["iiwa"]


@needs_cc
def test_service_builds_when_warming():
    eng = NativeEngine()
    with DynamicsService(n_shards=1, engine=eng,
                         warm_robots=["iiwa"]) as svc:
        assert load_robot("iiwa") in eng._by_model
        result = svc.submit("iiwa", RBDFunction.FD, np.zeros(7),
                            qd=np.zeros(7), u=np.zeros(7),
                            urgent=True).result(timeout=10.0)
        assert result.engine == "native"
        assert svc._DEGRADE_NEXT["native"] == "compiled"


def test_bad_operand_shape_raises(engine):
    model = load_robot("iiwa")
    if engine.kernels(model) is None:
        pytest.skip("iiwa runs the compiled fallback here")
    with pytest.raises(ValueError, match="qd must have shape"):
        engine.fd_batch(model, np.zeros((2, 7)), np.zeros((3, 7)),
                        np.zeros((2, 7)))
    with pytest.raises(ValueError, match="minv must have shape"):
        engine.difd_batch(model, np.zeros((2, 7)), np.zeros((2, 7)),
                          np.zeros((2, 7)), np.zeros((2, 6, 6)))
