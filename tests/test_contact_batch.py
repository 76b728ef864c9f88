"""Batched contact kernels vs the per-task ``repro.dynamics.contact``
reference: 1e-10 equivalence across every library robot, plus the masked
contact-mode solves and the dispatch registration."""

import numpy as np
import pytest

from repro import obs
from repro.dynamics.batch import BatchStates, batch_evaluate, batch_fd
from repro.dynamics.contact import (
    ContactPoint,
    ConstrainedDynamicsResult,
    _jacobian_dot_qd,
    constrained_forward_dynamics,
    contact_impulse,
    contact_jacobian,
    jacobian_dot_qd,
)
from repro.dynamics.contact_batch import (
    batch_constrained_fd,
    batch_contact_impulse,
    batch_contact_jacobian,
    batch_contact_positions,
    batch_jacobian_dot_qd,
    contact_signature,
)
from repro.dynamics.engine import available_engines
from repro.dynamics.jit import JitEngine
from repro.dynamics.kinematics import forward_kinematics
from repro.model.library import ROBOT_REGISTRY, load_robot
from repro.rollout import RolloutEngine

#: Contact-force solves are compared at 1e-10 *scaled by the reference
#: magnitude*: on robots with fewer than 3 DOF a 3-axis point constraint
#: is infeasible, the damped KKT forces are huge, and only the relative
#: agreement of the two solvers is meaningful.
TOL = 1e-10


def _contacts(model):
    """Two leaf contacts (one on single-leaf robots)."""
    return [
        ContactPoint(leaf, np.array([0.02, -0.01, -0.25]))
        for leaf in model.leaves()[:2]
    ]


def _states(model, n, seed=0, qd_scale=1.0):
    rng = np.random.default_rng(seed)
    qs = np.stack([model.random_q(rng) for _ in range(n)])
    qds = qd_scale * rng.normal(size=(n, model.nv))
    taus = rng.normal(size=(n, model.nv))
    return qs, qds, taus


def _assert_close(actual, reference, label, scale=1.0):
    scale = max(1.0, scale, float(np.max(np.abs(reference))))
    err = float(np.max(np.abs(actual - reference)))
    assert err <= TOL * scale, f"{label}: {err:.3e} > {TOL:.0e} * {scale:.1e}"


def _check_rows(model, contacts, qs, qds, taus, cfd, qd_plus, f_ext, rows,
                restitution):
    # On robots with fewer DOFs than constraint rows the point constraint
    # is infeasible: the damped KKT forces are O(1/damping) and every
    # derived quantity is a cancellation at that scale, so the comparison
    # scale is the force magnitude (conditioning-aware), not 1.
    degenerate = 3 * len(contacts) > model.nv
    for k in rows:
        fe = None if f_ext is None else {
            link: stack[k] for link, stack in f_ext.items()
        }
        ref = constrained_forward_dynamics(
            model, qs[k], qds[k], taus[k], contacts, fe
        )
        scale = (
            float(np.max(np.abs(ref.contact_forces))) if degenerate else 1.0
        )
        _assert_close(cfd.qdd[k], ref.qdd, f"qdd[{k}]", scale)
        _assert_close(cfd.contact_forces[k], ref.contact_forces,
                      f"forces[{k}]", scale)
        ref_imp = contact_impulse(model, qs[k], qds[k], contacts,
                                  restitution=restitution)
        _assert_close(qd_plus[k], ref_imp, f"impulse[{k}]", scale)


class TestEquivalence:
    """Batched == per-task contact.py at (scaled) 1e-10."""

    @pytest.mark.parametrize("robot", sorted(ROBOT_REGISTRY))
    @pytest.mark.parametrize("restitution", [0.0, 0.5])
    def test_batch_one(self, robot, restitution):
        model = load_robot(robot)
        contacts = _contacts(model)
        qs, qds, taus = _states(model, 1, seed=11)
        f_ext = {contacts[0].link: np.tile(
            np.array([0.1, -0.2, 0.05, 1.0, 0.5, -0.3]), (1, 1)
        )}
        cfd = batch_constrained_fd(model, qs, qds, taus, contacts,
                                   f_ext=f_ext)
        qd_plus = batch_contact_impulse(model, qs, qds, contacts,
                                        restitution=restitution)
        _check_rows(model, contacts, qs, qds, taus, cfd, qd_plus, f_ext,
                    [0], restitution)

    @pytest.mark.parametrize("robot", sorted(ROBOT_REGISTRY))
    def test_batch_256_sampled_rows(self, robot):
        """Full 256-task batch; the scalar reference checks a row sample
        (the batch path has no row-count-dependent branches beyond the
        stacking already exercised here)."""
        model = load_robot(robot)
        contacts = _contacts(model)
        qs, qds, taus = _states(model, 256, seed=5)
        rng = np.random.default_rng(17)
        f_ext = {contacts[-1].link: rng.normal(size=(256, 6))}
        cfd = batch_constrained_fd(model, qs, qds, taus, contacts,
                                   f_ext=f_ext)
        qd_plus = batch_contact_impulse(model, qs, qds, contacts,
                                        restitution=0.3)
        assert cfd.qdd.shape == (256, model.nv)
        assert cfd.contact_forces.shape == (256, 3 * len(contacts))
        _check_rows(model, contacts, qs, qds, taus, cfd, qd_plus, f_ext,
                    [0, 97, 255], 0.3)

    @pytest.mark.parametrize("robot", sorted(ROBOT_REGISTRY))
    @pytest.mark.parametrize("engine", available_engines())
    def test_engines_agree(self, engine, robot):
        """Every engine's cFD matches ``loop``'s at the 1e-10 contract,
        with f_ext and a mixed per-task contact mask: the staged branch
        (``compiled``: Minv and ``Minv (tau - C)`` from the plan's own
        staging) and the branch where the engine supplies them."""
        model = load_robot(robot)
        contacts = _contacts(model)
        c = len(contacts)
        qs, qds, taus = _states(model, 8, seed=2)
        rng = np.random.default_rng(21)
        f_ext = {contacts[0].link: rng.normal(size=(8, 6))}
        active = np.arange(8 * c).reshape(8, c) % 3 != 0
        ref = batch_constrained_fd(model, qs, qds, taus, contacts,
                                   f_ext=f_ext, active=active,
                                   engine="loop")
        # jit runs its functional kernels interpreted where jax is absent.
        eng = JitEngine(backend="numpy") if engine == "jit" else engine
        out = batch_constrained_fd(model, qs, qds, taus, contacts,
                                   f_ext=f_ext, active=active, engine=eng)
        # Infeasible point constraints (fewer DOFs than rows) scale every
        # derived quantity by the O(1/damping) forces; see _check_rows.
        scale = (float(np.max(np.abs(ref.contact_forces)))
                 if 3 * c > model.nv else 1.0)
        _assert_close(out.qdd, ref.qdd, f"{engine} qdd", scale)
        _assert_close(out.contact_forces, ref.contact_forces,
                      f"{engine} forces", scale)


class TestStageOnce:
    """One call stages the joint transforms from ``q`` exactly once."""

    @staticmethod
    def _transforms_calls(model, fn) -> int:
        with obs.profiled() as prof:
            fn()
        row = prof.breakdown().get((model.name, "transforms"))
        return 0 if row is None else row["calls"]

    def test_constrained_fd(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, taus = _states(model, 4, seed=13)
        calls = self._transforms_calls(model, lambda: batch_constrained_fd(
            model, qs, qds, taus, contacts, engine="compiled"))
        assert calls == 1

    def test_contact_impulse(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, _ = _states(model, 4, seed=14)
        calls = self._transforms_calls(model, lambda: batch_contact_impulse(
            model, qs, qds, contacts, engine="compiled"))
        assert calls == 1

    def test_ground_rollout_step(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, taus = _states(model, 4, seed=15)
        engine = RolloutEngine("semi_implicit", engine="compiled")
        calls = self._transforms_calls(model, lambda: engine.rollout(
            model, qs, qds, taus[:, None], dt=1e-3, contacts=contacts,
            contact_mask="ground", ground_height=0.0))
        assert calls == 1


class TestContactKinematics:
    @pytest.mark.parametrize("robot", sorted(ROBOT_REGISTRY))
    def test_jacobian_matches_scalar(self, robot):
        model = load_robot(robot)
        contacts = _contacts(model)
        qs, _, _ = _states(model, 6, seed=3)
        jac = batch_contact_jacobian(model, qs, contacts)
        for k in range(6):
            assert np.allclose(
                jac[k], contact_jacobian(model, qs[k], contacts), atol=1e-12
            )

    def test_jacobian_dot_qd_matches_scalar_analytic(self):
        model = load_robot("atlas")
        contacts = _contacts(model)
        qs, qds, _ = _states(model, 6, seed=4, qd_scale=2.0)
        jd = batch_jacobian_dot_qd(model, qs, qds, contacts)
        for k in range(6):
            assert np.allclose(
                jd[k], jacobian_dot_qd(model, qs[k], qds[k], contacts),
                atol=1e-10,
            )

    def test_analytic_jdot_matches_finite_difference(self):
        """The analytic drift term agrees with the directional difference
        up to the difference's own truncation error."""
        model = load_robot("hyq")
        contacts = _contacts(model)
        rng = np.random.default_rng(8)
        for _ in range(4):
            q, qd = model.random_state(rng)
            analytic = jacobian_dot_qd(model, q, qd, contacts)
            fd = _jacobian_dot_qd(model, q, qd, contacts)
            assert np.allclose(analytic, fd, atol=1e-5)

    def test_finite_difference_eps_scales_with_state(self):
        """The directional difference stays accurate at high joint rates
        (the old absolute eps degraded with |qd|)."""
        model = load_robot("iiwa")
        contacts = _contacts(model)
        rng = np.random.default_rng(9)
        q = model.random_q(rng)
        qd = 50.0 * rng.normal(size=model.nv)     # very fast state
        analytic = jacobian_dot_qd(model, q, qd, contacts)
        fd = _jacobian_dot_qd(model, q, qd, contacts)
        assert np.allclose(fd, analytic, rtol=1e-4, atol=1e-3)

    def test_contact_positions(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, _, _ = _states(model, 3, seed=6)
        pos = batch_contact_positions(model, qs, contacts)
        assert pos.shape == (3, len(contacts), 3)
        fk = forward_kinematics(model, qs[0])
        c = contacts[0]
        expected = fk.link_position(c.link) + fk.link_rotation(c.link) @ c.point_local
        assert np.allclose(pos[0, 0], expected, atol=1e-12)


class TestContactModes:
    def test_all_inactive_reduces_to_free_dynamics(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, taus = _states(model, 5, seed=7)
        res = batch_constrained_fd(
            model, qs, qds, taus, contacts,
            active=np.zeros((5, len(contacts)), dtype=bool),
        )
        free = batch_fd(model, BatchStates(qs, qds), taus)
        assert np.allclose(res.qdd, free, atol=1e-12)
        assert np.all(res.contact_forces == 0.0)

    def test_mixed_modes_match_per_task_active_sets(self):
        """Tasks in different contact modes share one batched solve and
        still match the per-task solve over exactly their active set."""
        model = load_robot("hyq")
        contacts = _contacts(model)
        n = 4
        qs, qds, taus = _states(model, n, seed=8)
        active = np.array(
            [[True, True], [True, False], [False, True], [False, False]]
        )
        res = batch_constrained_fd(model, qs, qds, taus, contacts,
                                   active=active)
        for k in range(n):
            sub = [c for c, on in zip(contacts, active[k]) if on]
            if sub:
                ref = constrained_forward_dynamics(
                    model, qs[k], qds[k], taus[k], sub
                )
                _assert_close(res.qdd[k], ref.qdd, f"qdd[{k}]")
                picked = res.contact_forces[k].reshape(-1, 3)[active[k]]
                _assert_close(picked.ravel(), ref.contact_forces,
                              f"forces[{k}]")
            inactive = ~np.repeat(active[k], 3)
            assert np.all(res.contact_forces[k][inactive] == 0.0)

    def test_masked_impulse(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, _ = _states(model, 3, seed=9)
        active = np.array([[True, False]] * 3)
        qd_plus = batch_contact_impulse(model, qs, qds, contacts,
                                        active=active)
        for k in range(3):
            ref = contact_impulse(model, qs[k], qds[k], [contacts[0]])
            _assert_close(qd_plus[k], ref, f"impulse[{k}]")


class TestDispatch:
    def test_cfd_registered_next_to_table_one(self):
        from repro.dynamics.batch import batch_function_names

        assert "cFD" in batch_function_names()
        assert "impulse" in batch_function_names()

    def test_cfd_dispatch(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, taus = _states(model, 3, seed=10)
        values = batch_evaluate(
            model, "cFD", BatchStates(qs, qds), taus, contacts=contacts
        )
        assert len(values) == 3
        assert isinstance(values[0], ConstrainedDynamicsResult)
        ref = batch_constrained_fd(model, qs, qds, taus, contacts)
        for k, value in enumerate(values):
            assert np.allclose(value.qdd, ref.qdd[k], atol=1e-12)

    def test_impulse_dispatch(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        qs, qds, _ = _states(model, 2, seed=12)
        values = batch_evaluate(
            model, "impulse", BatchStates(qs, qds), contacts=contacts,
            restitution=0.2,
        )
        ref = batch_contact_impulse(model, qs, qds, contacts,
                                    restitution=0.2)
        for k, value in enumerate(values):
            assert np.allclose(value, ref[k], atol=1e-12)

    def test_unknown_extension_function(self):
        model = load_robot("iiwa")
        qs, qds, _ = _states(model, 1)
        with pytest.raises(KeyError, match="unknown batch function"):
            batch_evaluate(model, "nope", BatchStates(qs, qds))

    def test_missing_contacts_rejected(self):
        model = load_robot("iiwa")
        qs, qds, taus = _states(model, 1)
        with pytest.raises(ValueError, match="contacts"):
            batch_evaluate(model, "cFD", BatchStates(qs, qds), taus)

    def test_contact_signature_hashable(self):
        model = load_robot("hyq")
        contacts = _contacts(model)
        sig = contact_signature(contacts)
        assert sig == contact_signature(list(contacts))
        hash(sig)
