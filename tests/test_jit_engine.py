"""The jit engine: functional-kernel equivalence and the fused rollout.

The acceptance sweep mirrors ``test_backend``'s: every Table-I function
through the ``jit`` engine must match the ``loop`` reference to 1e-10
on all library robots at batch 1 and 256, f_ext included.  The engine
is exercised on every backend that can carry the functional kernels:

* ``numpy`` — always available; ``jit`` is the identity so the kernels
  run interpreted (pure correctness of the out-of-place sweeps);
* ``jax`` — skipped cleanly when not installed; when present (the
  cpu-jit CI job) every function additionally round-trips through a
  real XLA trace, and the fused ``lax.scan`` rollout is compared
  against the per-step loop.

Loop references are shared with ``test_backend``'s memoized cache, so
the sweep adds no duplicate reference computations to the suite.
"""

import numpy as np
import pytest

from test_backend import (
    FUNCTIONS,
    ROBOTS,
    TOL,
    _batch_inputs,
    assert_matches_loop,
    assert_results_match,
)

from repro.backend import (
    BackendCapabilityError,
    available_backends,
    get_backend,
)
from repro.dynamics import batch_evaluate
from repro.dynamics.engine import available_engines, get_engine
from repro.dynamics.functions import RBDFunction
from repro.dynamics.jit import FUSED_SCHEMES, JitEngine
from repro.dynamics.plan import plan_for
from repro.model.joints import FloatingJoint, RevoluteJoint
from repro.model.library import load_robot, random_tree
from repro.model.robot import RobotBuilder
from repro.model.topology import reroot, split_floating_base
from repro.rollout import RolloutEngine
from repro.spatial.random import random_inertia

#: One engine per backend for the whole module, so compile caches warm
#: across tests exactly like a long-lived process.
_ENGINES: dict[str, JitEngine] = {}


@pytest.fixture(params=["numpy", "jax"], scope="module")
def jit_engine(request):
    """A JitEngine pinned per backend; uninstalled runtimes skip."""
    name = request.param
    if name not in available_backends():
        pytest.skip(f"backend {name!r} is not installed")
    engine = _ENGINES.get(name)
    if engine is None:
        engine = _ENGINES[name] = JitEngine(backend=name)
    return engine


# ---------------------------------------------------------------------------
# Registry and resolution
# ---------------------------------------------------------------------------


def test_jit_engine_registered():
    assert "jit" in available_engines()
    engine = get_engine("jit")
    assert engine.name == "jit"
    assert engine is get_engine("jit")


def test_jit_without_trace_backend_degrades_to_capability_error():
    """On a jax-less host the *default* jit engine must fail with the
    degradable capability error at call time, not at construction."""
    if "jax" in available_backends():
        pytest.skip("jax is installed; the default resolution succeeds")
    engine = JitEngine()          # construction never probes
    with pytest.raises(BackendCapabilityError, match="jit engine"):
        engine.m_batch(load_robot("pendulum"), np.zeros(1))


def test_jit_pinned_to_unknown_backend_is_capability_error():
    engine = JitEngine(backend="cupy")
    if "cupy" in available_backends():
        pytest.skip("cupy is installed here")
    with pytest.raises(BackendCapabilityError, match="cupy"):
        engine.m_batch(load_robot("pendulum"), np.zeros(1))


def test_structure_hash_stable_and_distinct():
    from repro.dynamics.plan import plan_for

    iiwa, hyq = load_robot("iiwa"), load_robot("hyq")
    h = plan_for(iiwa).structure_hash()
    assert h == plan_for(iiwa).structure_hash()
    assert h != plan_for(hyq).structure_hash()


def test_compile_cache_reuses_traces():
    engine = JitEngine(backend="numpy")
    model = load_robot("pendulum")
    q = np.zeros((2, 1))
    engine.m_batch(model, q)
    engine.m_batch(model, q)
    stats = engine.compile_cache_stats()
    assert stats["entries"] == 1
    assert stats["misses"] == 1
    assert stats["hits"] >= 1


# ---------------------------------------------------------------------------
# Equivalence sweep (the acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 256])
@pytest.mark.parametrize("robot", ROBOTS)
def test_jit_matches_loop(jit_engine, robot, n):
    """jit == loop at 1e-10: all robots, all seven functions."""
    model = load_robot(robot)
    for function in FUNCTIONS:
        states, u, minv = _batch_inputs(model, function, n)
        got = batch_evaluate(model, function, states, u, minv=minv,
                             engine=jit_engine)
        assert_matches_loop(robot, function, n, got)


def _assert_matches_loop(engine, model, n=3, seed=0):
    for function in FUNCTIONS:
        states, u, minv = _batch_inputs(model, function, n, seed=seed)
        got = batch_evaluate(model, function, states, u, minv=minv,
                             engine=engine)
        want = batch_evaluate(model, function, states, u, minv=minv,
                              engine="loop")
        assert_results_match(function, got, want)


@pytest.mark.parametrize("seed", range(4))
def test_jit_random_trees(jit_engine, seed):
    """Non-library topologies, including non-contiguous subtrees."""
    model = random_tree(9, seed=seed, floating=(seed % 2 == 0))
    _assert_matches_loop(jit_engine, model, seed=seed)


def floating_under_revolute():
    """A revolute root carrying a revolute link and a floating link, the
    latter with two revolute children: multi-DOF joints below the root
    and a level that mixes one- and six-DOF groups."""
    rng = np.random.default_rng(3)
    builder = RobotBuilder("float_mid")
    builder.add_link("base", None, RevoluteJoint([0.0, 0.0, 1.0]),
                     random_inertia(rng))
    builder.add_link("arm", "base", RevoluteJoint([0.0, 1.0, 0.0]),
                     random_inertia(rng), translation=[0.2, 0.0, 0.1])
    builder.add_link("body", "base", FloatingJoint(), random_inertia(rng),
                     translation=[0.0, 0.3, 0.2])
    for i, axis in enumerate(([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])):
        builder.add_link(f"leg{i}", "body", RevoluteJoint(axis),
                         random_inertia(rng),
                         translation=[0.1 * (i + 1), -0.1, 0.0])
    return builder.build()


def test_jit_floating_joint_below_root(jit_engine):
    """k > 1 joints off the root level: the MMinvGen articulated-inertia
    update, the subspace selector terms and the btr terms.  ``compiled``
    is checked too, since its ``btr_packed`` table serves this case."""
    model = floating_under_revolute()
    _assert_matches_loop(jit_engine, model)
    _assert_matches_loop("compiled", model)


@pytest.mark.parametrize("make, joints", [
    (lambda: reroot(load_robot("atlas"), "torso2"), "ScrewJoint"),
    (lambda: split_floating_base(load_robot("hyq")),
     "SphericalJoint.*Translation3Joint"),
], ids=["rerooted", "split_base"])
def test_jit_declines_generic_joints(make, joints):
    """Models with joints outside revolute/prismatic/floating raise the
    degradable capability error, naming the joint types."""
    from repro.dynamics import BatchStates

    model = make()
    q = BatchStates.random(model, 1, seed=0).q
    with pytest.raises(BackendCapabilityError, match=joints):
        JitEngine(backend="numpy").m_batch(model, q)


def _level_forces(model, n, rng):
    """Per-task forces on one link of every non-root level, preferring a
    link that shares its parent with a sibling, plus one force shared by
    every task on the root link."""
    plan = plan_for(model, "numpy")
    f_ext = {int(plan.levels[0].links[0]): rng.normal(size=6)}
    for lvl in plan.levels[1:]:
        parents = list(lvl.parent_slots)
        shared = [i for i, p in enumerate(parents) if parents.count(p) > 1]
        f_ext[int(lvl.links[shared[-1] if shared else 0])] = rng.normal(
            size=(n, 6)
        )
    return f_ext


@pytest.mark.parametrize(
    "function",
    [RBDFunction.ID, RBDFunction.FD, RBDFunction.DFD, RBDFunction.DID],
    ids=lambda f: f.value,
)
def test_jit_f_ext(jit_engine, function):
    """External forces on every non-root level reach the backward passes
    (siblings under a shared parent included): jit and compiled agree
    with the loop path on branched, random and floating-mid trees."""
    models = [load_robot("hyq"), load_robot("atlas"),
              random_tree(9, seed=0, floating=True),
              floating_under_revolute()]
    n = 6
    for model in models:
        states, u, _ = _batch_inputs(model, function, n, seed=11)
        f_ext = _level_forces(model, n, np.random.default_rng(12))
        want = batch_evaluate(model, function, states, u, f_ext=f_ext,
                              engine="loop")
        for engine in (jit_engine, "compiled"):
            got = batch_evaluate(model, function, states, u, f_ext=f_ext,
                                 engine=engine)
            assert_results_match(function, got, want)


def test_jit_difd_computes_minv_when_missing(jit_engine):
    model = load_robot("iiwa")
    states, u, minv = _batch_inputs(model, RBDFunction.DIFD, 4)
    out = jit_engine.difd_batch(model, states.q, states.qd, u)
    np.testing.assert_allclose(out[3], minv, **TOL)


# ---------------------------------------------------------------------------
# Fused rollout
# ---------------------------------------------------------------------------


def _rollout_inputs(model, n, t, seed=5):
    rng = np.random.default_rng(seed)
    from repro.dynamics import BatchStates

    st = BatchStates.random(model, n, seed=seed)
    us = 0.05 * rng.normal(size=(n, t, model.nv))
    return st.q, st.qd, us


@pytest.mark.parametrize("scheme", FUSED_SCHEMES)
def test_fused_rollout_matches_per_step(jit_engine, scheme):
    """The scanned trajectory equals the per-step compiled loop."""
    model = load_robot("iiwa")
    q0, qd0, us = _rollout_inputs(model, 3, 16)
    got = RolloutEngine(scheme, engine=jit_engine).rollout(
        model, q0, qd0, us, dt=1e-3
    )
    assert got.engine == "jit"
    want = RolloutEngine(scheme, engine="compiled").rollout(
        model, q0, qd0, us, dt=1e-3
    )
    np.testing.assert_allclose(got.qs, want.qs, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(got.qds, want.qds, rtol=1e-8, atol=1e-8)


def test_fused_rollout_bitwise_deterministic(jit_engine):
    """Repeated fused rollouts of identical inputs agree bit for bit."""
    model = load_robot("iiwa")
    q0, qd0, us = _rollout_inputs(model, 4, 24)
    first = jit_engine.fused_rollout(model, q0, qd0, us, dt=1e-3,
                                     scheme="semi_implicit")
    second = jit_engine.fused_rollout(model, q0, qd0, us, dt=1e-3,
                                      scheme="semi_implicit")
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_fused_path_taken_and_gated(jit_engine, monkeypatch):
    """Open-loop free rollouts fuse; quasi-velocity models stay stepped."""
    calls = []
    orig = jit_engine.fused_rollout

    def spy(*args, **kwargs):
        calls.append(args[0].name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(jit_engine, "fused_rollout", spy)
    iiwa = load_robot("iiwa")
    q0, qd0, us = _rollout_inputs(iiwa, 2, 4)
    RolloutEngine("euler", engine=jit_engine).rollout(
        iiwa, q0, qd0, us, dt=1e-3
    )
    assert calls == ["iiwa"]

    atlas = load_robot("atlas")       # floating base: exp-map integrate
    assert not jit_engine.supports_fused_rollout(atlas, "euler")
    q0, qd0, us = _rollout_inputs(atlas, 2, 2)
    res = RolloutEngine("euler", engine=jit_engine).rollout(
        atlas, q0, qd0, us, dt=1e-3
    )
    assert calls == ["iiwa"]          # no second fused call
    assert res.qs.shape == (2, 3, atlas.nv)


def test_fused_rollout_jax_matches_numpy_interp():
    """When jax is present, the scanned XLA rollout agrees with the
    interpreted numpy fold (same functional kernels, same fold)."""
    if "jax" not in available_backends():
        pytest.skip("jax is not installed")
    assert get_backend("jax").capabilities.scan
    model = load_robot("tiago")
    q0, qd0, us = _rollout_inputs(model, 3, 12)
    jax_qs, jax_qds = JitEngine(backend="jax").fused_rollout(
        model, q0, qd0, us, dt=1e-3, scheme="rk4"
    )
    np_qs, np_qds = JitEngine(backend="numpy").fused_rollout(
        model, q0, qd0, us, dt=1e-3, scheme="rk4"
    )
    np.testing.assert_allclose(jax_qs, np_qs, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(jax_qds, np_qds, rtol=1e-8, atol=1e-8)
