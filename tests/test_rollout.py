"""The ``repro.rollout`` subsystem: scheme equivalence vs the scalar
integrators, all four engines, contact modes, sensitivities, determinism
and the app-layer consumers."""

import numpy as np
import pytest

from repro.apps.integrators import (
    State,
    batch_rollout,
    euler_sensitivity_step,
    euler_step,
    rk4_sensitivity_step,
    rk4_step,
    rollout,
)
from repro.apps.mpc import PredictiveSamplingMPC
from repro.dynamics.contact import ContactPoint, constrained_forward_dynamics
from repro.model.library import double_pendulum, hyq, iiwa
from repro.rollout import SCHEMES, RolloutEngine, rollout_plan_for

DT = 2e-3


def _batch(model, n, t, seed=0, scale=0.2):
    rng = np.random.default_rng(seed)
    q0 = np.stack([model.random_q(rng) for _ in range(n)])
    qd0 = scale * rng.normal(size=(n, model.nv))
    controls = scale * rng.normal(size=(n, t, model.nv))
    return q0, qd0, controls


def _feet(model):
    return [
        ContactPoint(model.link_index(name), np.array([0.0, 0.0, -0.35]))
        for name in ("lf_kfe", "rh_kfe")
    ]


class TestSchemes:
    @pytest.mark.parametrize("scheme,step", [
        ("semi_implicit", euler_step), ("rk4", rk4_step),
    ])
    def test_matches_scalar_stepping(self, scheme, step):
        model = iiwa()
        n, t = 5, 10
        q0, qd0, us = _batch(model, n, t, seed=1)
        res = RolloutEngine(scheme, engine="loop").rollout(
            model, q0, qd0, us, dt=DT
        )
        assert res.qs.shape == (n, t + 1, model.nv)
        for k in range(n):
            state = State(q0[k].copy(), qd0[k].copy())
            for step_idx in range(t):
                state = step(model, state, us[k, step_idx], DT)
                assert np.allclose(res.qs[k, step_idx + 1], state.q,
                                   atol=1e-12)
                assert np.allclose(res.qds[k, step_idx + 1], state.qd,
                                   atol=1e-12)

    def test_explicit_euler_scheme(self):
        model = double_pendulum()
        q0, qd0, us = _batch(model, 3, 6, seed=2)
        res = RolloutEngine("euler", engine="loop").rollout(
            model, q0, qd0, us, dt=DT
        )
        from repro.dynamics.functions import forward_dynamics

        q, qd = q0[0].copy(), qd0[0].copy()
        for t in range(6):
            qdd = forward_dynamics(model, q, qd, us[0, t])
            q = model.integrate(q, DT * qd)
            qd = qd + DT * qdd
            assert np.allclose(res.qs[0, t + 1], q, atol=1e-12)
            assert np.allclose(res.qds[0, t + 1], qd, atol=1e-12)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            RolloutEngine("leapfrog")
        assert set(SCHEMES) == {"euler", "semi_implicit", "rk4"}


class TestEngines:
    @pytest.mark.parametrize("engine", ["loop", "compiled", "process"])
    def test_any_registered_engine(self, engine):
        """(n, T) slabs with contact run on every registered engine."""
        model = hyq()
        q0, qd0, us = _batch(model, 4, 5, seed=3)
        res = RolloutEngine("semi_implicit", engine=engine).rollout(
            model, q0, qd0, us, dt=1e-3, contacts=_feet(model)
        )
        ref = RolloutEngine("semi_implicit", engine="loop").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=_feet(model)
        )
        assert res.engine == engine
        assert np.allclose(res.qs, ref.qs, atol=1e-8)
        assert np.allclose(res.forces, ref.forces, atol=1e-6)

    @pytest.mark.parametrize("engine", ["loop", "compiled"])
    def test_deterministic_bitwise(self, engine):
        """Same inputs => bitwise-equal trajectories, run after run (the
        preallocated workspaces leak no state between calls)."""
        model = iiwa()
        q0, qd0, us = _batch(model, 6, 8, seed=4)
        eng = RolloutEngine("rk4", engine=engine)
        first = eng.rollout(model, q0, qd0, us, dt=DT)
        second = eng.rollout(model, q0, qd0, us, dt=DT)
        assert np.array_equal(first.qs, second.qs)
        assert np.array_equal(first.qds, second.qds)

    def test_same_seed_same_trajectories_across_engines(self):
        """One seeded input slab produces matching trajectories on every
        engine (loop is the bit-reference; array engines agree to the
        engine-equivalence tolerance propagated over the horizon)."""
        model = iiwa()
        q0, qd0, us = _batch(model, 4, 8, seed=5)
        results = {
            engine: RolloutEngine("rk4", engine=engine).rollout(
                model, q0, qd0, us, dt=DT
            )
            for engine in ("loop", "compiled", "process")
        }
        for engine, res in results.items():
            assert np.allclose(res.qs, results["loop"].qs, atol=1e-9), engine


class TestContacts:
    def test_contact_rollout_matches_per_step_reference(self):
        model = hyq()
        feet = _feet(model)
        q0, qd0, us = _batch(model, 3, 5, seed=6)
        res = RolloutEngine("semi_implicit", engine="loop").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet
        )
        for k in range(3):
            q, qd = q0[k].copy(), qd0[k].copy()
            for t in range(5):
                ref = constrained_forward_dynamics(model, q, qd, us[k, t],
                                                   feet)
                qd = qd + 1e-3 * ref.qdd
                q = model.integrate(q, 1e-3 * qd)
                assert np.allclose(res.forces[k, t], ref.contact_forces,
                                   atol=1e-9)
                assert np.allclose(res.qs[k, t + 1], q, atol=1e-10)

    def test_per_step_mask_schedule(self):
        """A (T, c) gait schedule switches contact modes step by step."""
        model = hyq()
        feet = _feet(model)
        q0, qd0, us = _batch(model, 2, 4, seed=7)
        schedule = np.array([
            [True, True], [True, False], [False, True], [False, False],
        ])
        res = RolloutEngine("semi_implicit").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet,
            contact_mask=schedule,
        )
        assert res.active.shape == (2, 4, 2)
        assert np.array_equal(res.active[0], schedule)
        # Fully inactive steps carry exactly zero force.
        assert np.all(res.forces[:, 3][:, 0:3] == 0.0)
        assert np.all(res.forces[:, 3][:, 3:6] == 0.0)

    def test_callable_mask(self):
        model = hyq()
        feet = _feet(model)
        q0, qd0, us = _batch(model, 2, 3, seed=8)
        seen = []

        def mask(t, q, qd):
            seen.append(t)
            return np.ones((2, 2), dtype=bool)

        RolloutEngine("semi_implicit").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet, contact_mask=mask
        )
        assert seen == [0, 1, 2]

    def test_ground_mode_masks_by_height(self):
        model = hyq()
        feet = _feet(model)
        q0, qd0, us = _batch(model, 2, 2, seed=9)
        res = RolloutEngine("semi_implicit").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet,
            contact_mask="ground", ground_height=1e6,
        )
        assert np.all(res.active)       # everything is below 1e6
        res = RolloutEngine("semi_implicit").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet,
            contact_mask="ground", ground_height=-1e6,
        )
        assert not np.any(res.active)

    def test_per_task_static_mask(self):
        """(n, c) masks pin each task's contact mode for the whole
        rollout (with n != T so the shape is unambiguous)."""
        model = hyq()
        feet = _feet(model)
        q0, qd0, us = _batch(model, 3, 4, seed=21)
        per_task = np.array([[True, True], [True, False], [False, False]])
        res = RolloutEngine("semi_implicit").rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet,
            contact_mask=per_task,
        )
        for t in range(4):
            assert np.array_equal(res.active[:, t], per_task)
        assert np.all(res.forces[2] == 0.0)

    def test_bad_mask_shape_rejected(self):
        model = hyq()
        q0, qd0, us = _batch(model, 2, 3)
        with pytest.raises(ValueError, match="contact_mask shape"):
            RolloutEngine("semi_implicit").rollout(
                model, q0, qd0, us, dt=1e-3, contacts=_feet(model),
                contact_mask=np.ones((5, 2), dtype=bool),
            )

    def test_contact_count_can_shrink_between_calls(self):
        """A narrower contact set after a wider one reuses the grown
        workspace without shape errors."""
        model = hyq()
        feet = _feet(model)
        q0, qd0, us = _batch(model, 2, 3, seed=22)
        engine = RolloutEngine("semi_implicit")
        engine.rollout(model, q0, qd0, us, dt=1e-3, contacts=feet)
        res = engine.rollout(model, q0, qd0, us, dt=1e-3,
                             contacts=feet[:1])
        assert res.forces.shape == (2, 3, 3)
        assert res.active.shape == (2, 3, 1)

    def test_unknown_mode_rejected(self):
        model = hyq()
        q0, qd0, us = _batch(model, 1, 1)
        with pytest.raises(ValueError, match="unknown contact mode"):
            RolloutEngine("semi_implicit").rollout(
                model, q0, qd0, us, dt=1e-3, contacts=_feet(model),
                contact_mask="water",
            )


class TestSensitivities:
    def test_semi_implicit_matches_scalar_sensitivity_step(self):
        model = double_pendulum()
        q0, qd0, us = _batch(model, 3, 4, seed=10)
        res = RolloutEngine("semi_implicit", engine="loop").rollout(
            model, q0, qd0, us, dt=DT, sensitivities=True
        )
        for k in range(3):
            state = State(q0[k].copy(), qd0[k].copy())
            for t in range(4):
                step = euler_sensitivity_step(model, state, us[k, t], DT)
                assert np.allclose(res.a_matrices[k, t], step.a_matrix,
                                   atol=1e-10)
                assert np.allclose(res.b_matrices[k, t], step.b_matrix,
                                   atol=1e-10)
                state = step.state
                assert np.allclose(res.qs[k, t + 1], state.q, atol=1e-10)

    def test_rk4_matches_scalar_sensitivity_step(self):
        model = double_pendulum()
        q0, qd0, us = _batch(model, 2, 3, seed=11)
        res = RolloutEngine("rk4", engine="loop").rollout(
            model, q0, qd0, us, dt=DT, sensitivities=True
        )
        for k in range(2):
            state = State(q0[k].copy(), qd0[k].copy())
            for t in range(3):
                step = rk4_sensitivity_step(model, state, us[k, t], DT)
                assert np.allclose(res.a_matrices[k, t], step.a_matrix,
                                   atol=1e-9)
                assert np.allclose(res.b_matrices[k, t], step.b_matrix,
                                   atol=1e-9)
                state = step.state

    def test_sensitivities_with_contacts_rejected(self):
        model = hyq()
        q0, qd0, us = _batch(model, 1, 2)
        with pytest.raises(ValueError, match="sensitivit"):
            RolloutEngine("semi_implicit").rollout(
                model, q0, qd0, us, dt=1e-3, contacts=_feet(model),
                sensitivities=True,
            )


class TestApi:
    def test_policy_closed_loop(self):
        """PD policy rollouts: controls computed from the evolving state."""
        model = double_pendulum()
        n = 4
        rng = np.random.default_rng(12)
        q0 = 0.3 * rng.normal(size=(n, model.nv))
        qd0 = np.zeros((n, model.nv))
        goal = np.array([0.5, -0.2])

        from repro.dynamics.rnea import gravity_torques

        def policy(t, q, qd):
            gravity = np.stack([
                gravity_torques(model, q[i]) for i in range(q.shape[0])
            ])
            return gravity + 60.0 * (goal - q) - 8.0 * qd

        res = RolloutEngine("semi_implicit").rollout(
            model, q0, qd0, policy=policy, horizon=400, dt=5e-3
        )
        assert res.controls.shape == (n, 400, model.nv)
        assert np.allclose(res.qs[:, -1], goal, atol=0.05)

    def test_shared_controls_broadcast(self):
        model = iiwa()
        q0, qd0, us = _batch(model, 3, 4, seed=13)
        shared = us[0]
        res = RolloutEngine("rk4").rollout(model, q0, qd0, shared, dt=DT)
        per_task = RolloutEngine("rk4").rollout(
            model, q0, qd0, np.broadcast_to(shared, (3, 4, model.nv)),
            dt=DT,
        )
        assert np.array_equal(res.qs, per_task.qs)

    def test_single_task_vectors(self):
        model = iiwa()
        rng = np.random.default_rng(14)
        q0 = model.random_q(rng)
        res = RolloutEngine("rk4").rollout(
            model, q0, np.zeros(model.nv),
            np.zeros((3, model.nv)), dt=DT,
        )
        assert res.qs.shape == (1, 4, model.nv)
        task = res.task(0)
        assert task.qs.shape == (4, model.nv)

    def test_input_validation(self):
        model = iiwa()
        q0, qd0, us = _batch(model, 2, 3)
        engine = RolloutEngine("rk4")
        with pytest.raises(ValueError, match="controls or a policy"):
            engine.rollout(model, q0, qd0, dt=DT)
        with pytest.raises(ValueError, match="horizon"):
            engine.rollout(model, q0, qd0, policy=lambda t, q, qd: q, dt=DT)
        with pytest.raises(ValueError, match="does not match"):
            engine.rollout(model, q0, qd0, us, dt=DT, horizon=7)
        with pytest.raises(ValueError, match="qd0"):
            engine.rollout(model, q0, qd0[:1], us, dt=DT)

    def test_plan_memoized_per_combination(self):
        model = iiwa()
        a = rollout_plan_for(model, "rk4", "compiled")
        b = rollout_plan_for(model, "rk4", "compiled")
        c = rollout_plan_for(model, "euler", "compiled")
        assert a is b
        assert a is not c
        assert a.describe()["fd_per_step"] == 4

    def test_workspace_reused_across_calls(self):
        model = iiwa()
        engine = RolloutEngine("semi_implicit")
        q0, qd0, us = _batch(model, 4, 6, seed=15)
        engine.rollout(model, q0, qd0, us, dt=DT)
        plan = engine.plan(model)
        ws = plan._tls.ws
        nbytes = ws.nbytes()
        engine.rollout(model, q0, qd0, us, dt=DT)
        assert plan._tls.ws is ws
        assert ws.nbytes() == nbytes


class TestAppConsumers:
    def test_rollout_helper_matches_scalar_loop(self):
        """apps.integrators.rollout (batched path) == explicit stepping."""
        model = double_pendulum()
        rng = np.random.default_rng(16)
        initial = State(rng.normal(size=2), rng.normal(size=2))
        controls = [0.1 * rng.normal(size=2) for _ in range(8)]
        states = rollout(model, initial, controls, 1e-2, rk4_step)
        state = initial
        for t, tau in enumerate(controls):
            state = rk4_step(model, state, tau, 1e-2)
            assert np.allclose(states[t + 1].q, state.q, atol=1e-10)

    def test_rollout_helper_accepts_ndarray_controls(self):
        model = double_pendulum()
        rng = np.random.default_rng(19)
        initial = State(rng.normal(size=2), rng.normal(size=2))
        controls = 0.1 * rng.normal(size=(5, 2))
        states = rollout(model, initial, controls, 1e-2, euler_step)
        assert len(states) == 6
        assert rollout(model, initial, np.zeros((0, 2)), 1e-2) == [initial]

    def test_batch_rollout_wrapper(self):
        model = iiwa()
        q0, qd0, us = _batch(model, 3, 4, seed=17)
        res = batch_rollout(model, q0, qd0, us, DT, scheme="rk4")
        direct = RolloutEngine("rk4").rollout(model, q0, qd0, us, dt=DT)
        assert np.array_equal(res.qs, direct.qs)

    def test_predictive_sampling_mpc_improves_cost(self):
        model = double_pendulum()
        goal = np.array([0.6, -0.3])

        def cost(qs, qds, us):
            err = qs[:, -1] - goal
            return (
                np.sum(err * err, axis=1)
                + 0.1 * np.sum(qds[:, -1] ** 2, axis=1)
                + 1e-4 * np.sum(us * us, axis=(1, 2))
            )

        mpc = PredictiveSamplingMPC(
            model, cost, horizon=20, dt=1e-2, n_samples=24, noise=0.5,
            seed=3,
        )
        q = np.zeros(2)
        qd = np.zeros(2)
        first_cost = None
        for _ in range(25):
            u0, info = mpc.plan(q, qd)
            if first_cost is None:
                first_cost = info["cost"]
            state = euler_step(model, State(q, qd), u0, 1e-2)
            q, qd = state.q, state.qd
        assert info["cost"] < first_cost
        assert info["rollout"].batch == 24
