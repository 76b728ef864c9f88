"""Equivalence and structure suite for the compiled execution plans.

The ``"compiled"`` engine must be numerically interchangeable with the
``"loop"`` reference — same Table-I function, same robot, same batch — to
1e-10, across every library robot, the batch-size extremes the serve
runtime produces (singleton flushes and full 256-task accelerator loads)
and the external-force path.  Structure tests pin the compile-time
invariants the kernels rely on: the level schedule covers every link
exactly once with parents strictly shallower, slots are level-contiguous,
and workspaces are reused rather than regrown.
"""

import threading

import numpy as np
import pytest

from repro.dynamics import BatchStates, batch_evaluate, evaluate
from repro.dynamics.engine import CompiledEngine, get_engine
from repro.dynamics.functions import RBDFunction
from repro.dynamics.plan import ExecutionPlan, plan_for
from repro.model.library import ROBOT_REGISTRY, load_robot, random_tree
from repro.model.topology import reroot, split_floating_base

TOL = dict(rtol=1e-10, atol=1e-10)
ROBOTS = sorted(ROBOT_REGISTRY)
FUNCTIONS = list(RBDFunction)
#: Functions whose loop reference is cheap enough for full 256-task runs.
DIRECT_FUNCTIONS = [RBDFunction.ID, RBDFunction.FD,
                    RBDFunction.M, RBDFunction.MINV]
DERIV_FUNCTIONS = [RBDFunction.DID, RBDFunction.DFD, RBDFunction.DIFD]


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


def _random_f_ext(model, n, seed):
    """Mixed-convention external forces: per-task and shared stacks."""
    rng = np.random.default_rng(seed)
    return {
        0: rng.normal(size=(n, 6)),            # per-task stack
        model.nb - 1: rng.normal(size=6),      # shared by every task
    }


def _compare(got, want):
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


class TestPlanEquivalence:
    """compiled == loop on every robot x function the library knows."""

    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.value)
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_every_robot_and_function(self, robot, function):
        model = load_robot(robot)
        states, u, minv = _batch_inputs(model, function, n=4, seed=3)
        loop = batch_evaluate(model, function, states, u, minv=minv,
                              engine="loop")
        comp = batch_evaluate(model, function, states, u, minv=minv,
                              engine="compiled")
        _compare(comp, loop)

    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.value)
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_every_robot_and_function_with_f_ext(self, robot, function):
        if function in (RBDFunction.M, RBDFunction.MINV):
            pytest.skip("mass-matrix functions take no forces")
        model = load_robot(robot)
        states, u, minv = _batch_inputs(model, function, n=4, seed=4)
        f_ext = _random_f_ext(model, 4, seed=40)
        loop = batch_evaluate(model, function, states, u, minv=minv,
                              f_ext=f_ext, engine="loop")
        comp = batch_evaluate(model, function, states, u, minv=minv,
                              f_ext=f_ext, engine="compiled")
        _compare(comp, loop)

    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [1, 256])
    def test_batch_size_extremes(self, function, n):
        """Singleton flushes and full accelerator loads agree (iiwa)."""
        model = load_robot("iiwa")
        states, u, minv = _batch_inputs(model, function, n=n, seed=5)
        loop = batch_evaluate(model, function, states, u, minv=minv,
                              engine="loop")
        comp = batch_evaluate(model, function, states, u, minv=minv,
                              engine="compiled")
        _compare(comp, loop)

    @pytest.mark.parametrize("function", DIRECT_FUNCTIONS,
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [1, 256])
    def test_batch_size_extremes_branched(self, function, n):
        """Batch extremes on a branched robot, against the loop engine."""
        model = load_robot("quadruped_arm")
        states, u, minv = _batch_inputs(model, function, n=n, seed=6)
        loop = batch_evaluate(model, function, states, u, minv=minv,
                              engine="loop")
        comp = batch_evaluate(model, function, states, u, minv=minv,
                              engine="compiled")
        _compare(comp, loop)

    @pytest.mark.parametrize("function", DERIV_FUNCTIONS,
                             ids=lambda f: f.value)
    def test_batch_256_branched_derivatives(self, function):
        """Derivative suite at 256 on a branched robot, with f_ext.

        The compiled engine runs the full 256-task batch; the loop
        reference checks a seeded sample of its rows (a 256-task
        loop-engine derivative run on a 24-DOF robot would dominate the
        whole suite's runtime).
        """
        model = load_robot("quadruped_arm")
        states, u, minv = _batch_inputs(model, function, n=256, seed=7)
        f_ext = _random_f_ext(model, 256, seed=70)
        comp = batch_evaluate(model, function, states, u, minv=minv,
                              f_ext=f_ext, engine="compiled")
        rows = np.sort(np.random.default_rng(71).choice(256, 16,
                                                        replace=False))
        loop = batch_evaluate(
            model, function, BatchStates(states.q[rows], states.qd[rows]),
            u[rows], minv=None if minv is None else minv[rows],
            f_ext={link: f if f.ndim == 1 else f[rows]
                   for link, f in f_ext.items()},
            engine="loop",
        )
        _compare([comp[k] for k in rows], loop)

    @pytest.mark.parametrize("n", [1, 256])
    def test_f_ext_at_batch_extremes(self, n):
        model = load_robot("hyq")
        states, u, _ = _batch_inputs(model, RBDFunction.FD, n=n, seed=8)
        f_ext = _random_f_ext(model, n, seed=80)
        loop = batch_evaluate(model, RBDFunction.FD, states, u,
                              f_ext=f_ext, engine="loop")
        comp = batch_evaluate(model, RBDFunction.FD, states, u,
                              f_ext=f_ext, engine="compiled")
        _compare(comp, loop)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_trees(self, seed):
        """Random (non-library) topologies, including non-contiguous
        subtrees, stay loop-equivalent."""
        model = random_tree(9, seed=seed, floating=(seed % 2 == 0))
        states, u, _ = _batch_inputs(model, RBDFunction.DFD, n=3, seed=seed)
        for function in (RBDFunction.ID, RBDFunction.M, RBDFunction.FD,
                         RBDFunction.DFD):
            loop = batch_evaluate(model, function, states, u, engine="loop")
            comp = batch_evaluate(model, function, states, u,
                                  engine="compiled")
            _compare(comp, loop)

    def test_rewritten_topologies(self):
        """Plans survive topology rewriting (reroot's ScrewJoints use the
        generic transform path; split bases add multi-DOF interior
        levels)."""
        for model in (reroot(load_robot("atlas"), "torso2"),
                      split_floating_base(load_robot("hyq"))):
            states, u, _ = _batch_inputs(model, RBDFunction.FD, n=3, seed=9)
            for function in (RBDFunction.ID, RBDFunction.FD,
                             RBDFunction.MINV, RBDFunction.DID):
                loop = batch_evaluate(model, function, states, u,
                                      engine="loop")
                comp = batch_evaluate(model, function, states, u,
                                      engine="compiled")
                _compare(comp, loop)


class TestPlanStructure:
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_slots_cover_links_level_contiguously(self, robot):
        model = load_robot(robot)
        plan = plan_for(model)
        seen = []
        for lvl in plan.levels:
            assert lvl.hi - lvl.lo == len(lvl.links)
            for pos, link in enumerate(lvl.links):
                slot = lvl.lo + pos
                assert plan.slot_of_link[link] == slot
                assert plan.link_of_slot[slot] == link
                seen.append(int(link))
            # Parents of a level live strictly before the level's slab
            # (parent-before-child over slots).
            if not lvl.is_root:
                assert lvl.parent_slots.max() < lvl.lo
        assert sorted(seen) == list(range(model.nb))

    @pytest.mark.parametrize("robot", ROBOTS)
    def test_transform_groups_cover_slots(self, robot):
        plan = plan_for(load_robot(robot))
        covered = sorted(
            int(s) for g in plan.transform_groups for s in g.slots
        )
        assert covered == list(range(plan.nb))

    def test_plan_cache_is_per_model_instance(self):
        model = load_robot("iiwa")
        assert plan_for(model) is plan_for(model)
        fresh = load_robot("iiwa", fresh=True)
        assert plan_for(fresh) is not plan_for(model)

    def test_plan_cache_releases_transient_models(self):
        """Plans hold no back-reference to their model, so the weak cache
        lets a transient model (and its plan) be collected."""
        import gc
        import weakref

        model = random_tree(5, seed=99)
        ref = weakref.ref(model)
        plan = plan_for(model)
        assert plan.robot_name == model.name
        del model, plan
        gc.collect()
        assert ref() is None

    def test_describe(self):
        plan = plan_for(load_robot("quadruped_arm"))
        info = plan.describe()
        assert info["links"] == 19
        assert info["dofs"] == 24
        assert info["levels"] == 7
        assert info["max_level_width"] == 5
        assert sum(info["level_widths"]) == 19

    def test_workspace_reused_not_regrown(self):
        """Steady-state calls share one workspace; capacity only grows."""
        model = load_robot("double_pendulum", fresh=True)
        plan = ExecutionPlan(model)
        states, u, _ = _batch_inputs(model, RBDFunction.FD, n=8, seed=1)
        plan.fd_batch(states.q, states.qd, u)
        ws = plan.workspace(8)
        x_buffer = ws.X
        assert ws.capacity == 8
        # A smaller batch reuses the same buffers...
        small = BatchStates.random(model, 3, seed=2)
        plan.fd_batch(small.q, small.qd, u[:3])
        assert plan.workspace(3) is ws
        assert plan.workspace(3).X is x_buffer
        # ...and only a larger one grows them.
        big = BatchStates.random(model, 16, seed=3)
        plan.fd_batch(big.q, big.qd, np.zeros((16, model.nv)))
        assert plan.workspace(1).capacity == 16
        assert plan.workspace(1).nbytes() > 0

    def test_workspaces_are_thread_local(self):
        """Concurrent shard workers must not share recursion state."""
        model = load_robot("hyq")
        engine = get_engine("compiled")
        assert isinstance(engine, CompiledEngine)
        states, u, _ = _batch_inputs(model, RBDFunction.FD, n=16, seed=11)
        expected = batch_evaluate(model, RBDFunction.FD, states, u,
                                  engine="loop")
        errors = []

        def worker():
            try:
                for _ in range(10):
                    got = batch_evaluate(model, RBDFunction.FD, states, u,
                                         engine="compiled")
                    _compare(got, expected)
            except Exception as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_outputs_are_decoupled_from_workspace(self):
        """Returned arrays must survive the next call on the same plan."""
        model = load_robot("iiwa")
        states, u, _ = _batch_inputs(model, RBDFunction.ID, n=2, seed=12)
        first = batch_evaluate(model, RBDFunction.ID, states, u,
                               engine="compiled")
        snapshot = [np.array(v, copy=True) for v in first]
        other = BatchStates.random(model, 2, seed=13)
        batch_evaluate(model, RBDFunction.ID, other,
                       np.ones((2, model.nv)), engine="compiled")
        for value, kept in zip(first, snapshot):
            np.testing.assert_array_equal(value, kept)


def _packed_model(name):
    """Branched / rewritten / random topologies the packing must survive."""
    if name == "rerooted_atlas":
        return reroot(load_robot("atlas"), "torso2")
    if name == "split_hyq":
        return split_floating_base(load_robot("hyq"))
    if name == "random_tree":
        return random_tree(9, seed=2, floating=True)
    return load_robot(name)


PACKED_TOPOLOGIES = ["iiwa", "hyq", "quadruped_arm", "atlas",
                     "rerooted_atlas", "split_hyq", "random_tree"]


def _assert_scaled_close(got, want, tol=1e-10):
    """Magnitude-scaled max-abs comparison: the dFD derivative blocks
    reach |dqdd_dq| ~ 1e4 on atlas-sized trees, where a 1e-10 *absolute*
    bound would demand ~1e-14 relative accuracy — below float64
    conditioning through ``-Minv @ dtau``.  Scaling by max(1, |ref|)
    keeps the contract at 1e-10 in the units of the data."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    assert err <= tol * scale, (err, scale)


def _incidence_model(name):
    """Library robots, random trees, rewritten topologies and a floating
    joint below the root: every parent-sharing pattern the levels see."""
    if name.startswith("random_tree"):
        seed = int(name[len("random_tree"):])
        return random_tree(9, seed=seed, floating=(seed % 2 == 0))
    if name == "float_mid":
        from test_jit_engine import floating_under_revolute

        return floating_under_revolute()
    return _packed_model(name)


INCIDENCE_TOPOLOGIES = (ROBOTS + [f"random_tree{s}" for s in range(4)]
                        + ["rerooted_atlas", "split_hyq", "float_mid"])


@pytest.mark.parametrize("name", INCIDENCE_TOPOLOGIES)
def test_parent_incidence_is_the_parent_sum(name):
    """``PackedLevel.incidence`` maps each link to its parent, ``pslice``
    is set exactly when the parent slots are contiguous, and
    ``_scatter_to_parents`` equals an ``np.add.at`` scatter."""
    plan = ExecutionPlan(_incidence_model(name))
    rng = np.random.default_rng(5)
    for lvl, pk in zip(plan.levels, plan.packed_levels):
        if lvl.is_root:
            assert pk.incidence is None
            continue
        inc = pk.incidence
        assert inc.shape == (plan.levels[lvl.index - 1].size, lvl.size)
        assert set(np.unique(inc)) <= {0.0, 1.0}
        np.testing.assert_array_equal(inc.sum(axis=0), 1.0)
        np.testing.assert_array_equal(inc[pk.prel, np.arange(lvl.size)], 1.0)
        ps = lvl.parent_slots
        contiguous = np.array_equal(ps, np.arange(ps[0], ps[0] + len(ps)))
        assert (pk.pslice is not None) == contiguous
        value = rng.standard_normal((3, lvl.size, 6, 6))
        dest = rng.standard_normal((3, plan.nb, 6, 6))
        want = dest.copy()
        np.add.at(want, (slice(None), ps), value)
        plan._scatter_to_parents(dest, lvl, value)
        np.testing.assert_allclose(dest, want, rtol=0, atol=1e-12)


class TestPackedIndices:
    """Compile-time invariants of the packed column layout (Fig 7b).

    The packed sweeps are only as correct as the gather/scatter geometry
    they run on: ``col_perm`` must be a permutation of the DOF columns,
    each level's prefix/suffix windows must be exactly the path/subtree
    column unions the kernels assume are the only nonzero columns, and
    the owned columns must partition each level's band.  The sweeps
    themselves are held to the ``loop`` oracle on every topology.
    """

    @pytest.mark.parametrize("name", PACKED_TOPOLOGIES)
    def test_col_perm_is_permutation(self, name):
        model = _packed_model(name)
        plan = ExecutionPlan(model)
        nv = model.nv
        assert sorted(plan.col_perm.tolist()) == list(range(nv))
        np.testing.assert_array_equal(plan.col_perm[plan.col_pos],
                                      np.arange(nv))
        np.testing.assert_array_equal(plan.col_pos[plan.col_perm],
                                      np.arange(nv))

    @pytest.mark.parametrize("name", PACKED_TOPOLOGIES)
    def test_level_windows_are_exact_column_unions(self, name):
        """Suffix [wp, nv) == the level links' subtree-column union,
        exactly; prefix [0, w) == all columns owned at depth <= level
        (the contiguous cover of the path union, which it must contain);
        owned columns partition the level band [wp, w)."""
        model = _packed_model(name)
        plan = ExecutionPlan(model)
        nv = model.nv
        shallow_union: set[int] = set()
        for lvl, pk in zip(plan.levels, plan.packed_levels):
            path_union = set()
            subtree_union = set()
            for link in lvl.links:
                path_union.update(model.supporting_dofs(int(link)))
                sl = model.dof_slice(int(link))
                shallow_union.update(range(sl.start, sl.stop))
                for j in model.subtree(int(link)):
                    sl = model.dof_slice(j)
                    subtree_union.update(range(sl.start, sl.stop))
            prefix = set(plan.col_perm[:pk.w].tolist())
            # The prefix is exactly the depth-<= union, and covers every
            # column the forward transfer stacks can touch (path union).
            assert prefix == shallow_union
            assert path_union <= prefix
            # The suffix is exactly where backward force accumulators
            # can be nonzero: the level links' subtree columns.
            assert set(plan.col_perm[pk.wp:].tolist()) == subtree_union
            own = np.sort(np.concatenate([
                np.asarray(p).reshape(-1) for p in pk.own_pos
            ]))
            np.testing.assert_array_equal(own, np.arange(pk.wp, pk.w))
        # The last level's prefix covers every DOF column.
        assert plan.packed_levels[-1].w == nv

    @pytest.mark.parametrize("name", PACKED_TOPOLOGIES)
    def test_gather_scatter_roundtrip_identity(self, name):
        model = _packed_model(name)
        plan = ExecutionPlan(model)
        nv = model.nv
        rng = np.random.default_rng(17)
        arr = rng.standard_normal((3, nv))
        packed = arr[:, plan.col_perm]
        # Unpermute-by-gather and scatter-by-assign both invert exactly.
        np.testing.assert_array_equal(packed[:, plan.col_pos], arr)
        out = np.empty_like(arr)
        out[:, plan.col_perm] = packed
        np.testing.assert_array_equal(out, arr)
        # The paired (row, column) gather the matrix extractions use.
        sym = rng.standard_normal((2, nv, nv))
        both = sym[:, plan.col_perm[:, None], plan.col_perm[None, :]]
        np.testing.assert_array_equal(
            both[:, plan.col_pos[:, None], plan.col_pos[None, :]], sym
        )

    @pytest.mark.parametrize("name", PACKED_TOPOLOGIES)
    def test_packed_matches_loop(self, name):
        """The packed M / Minv / dID / dFD sweeps == the loop reference,
        on serial chains, branched trees and rewritten topologies."""
        model = _packed_model(name)
        plan = ExecutionPlan(model)
        loop = get_engine("loop")
        states, u, _ = _batch_inputs(model, RBDFunction.DFD, n=4, seed=21)
        q, qd = states.q, states.qd
        _assert_scaled_close(plan.m_batch(q), loop.m_batch(model, q))
        _assert_scaled_close(plan.minv_batch(q), loop.minv_batch(model, q))
        for a, b in zip(plan.dfd_batch(q, qd, u),
                        loop.dfd_batch(model, q, qd, u)):
            _assert_scaled_close(a, b)
        for a, b in zip(plan.did_batch(q, qd, u),
                        loop.did_batch(model, q, qd, u)):
            _assert_scaled_close(a, b)
