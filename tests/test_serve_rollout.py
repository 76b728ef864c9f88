"""Rollout-as-a-service: submit_rollout, horizon-aware batching, cost-
weighted placement, and the measured-throughput weight feedback."""

import numpy as np
import pytest

from repro.dynamics.contact import ContactPoint
from repro.model.library import hyq, iiwa, load_robot
from repro.rollout import RolloutEngine
from repro.serve import (
    BatchPolicy,
    DynamicBatcher,
    DynamicsService,
    RolloutRequest,
    RolloutServeResult,
    ShardConfig,
    ShardPool,
)


def _rollout_inputs(model, t, seed=0):
    rng = np.random.default_rng(seed)
    q0 = model.random_q(rng)
    qd0 = 0.2 * rng.normal(size=model.nv)
    controls = 0.1 * rng.normal(size=(t, model.nv))
    return q0, qd0, controls


def _feet(model):
    return [
        ContactPoint(model.link_index(name), np.array([0.0, 0.0, -0.35]))
        for name in ("lf_kfe", "rh_kfe")
    ]


class TestSubmitRollout:
    def test_roundtrip_matches_direct_rollout(self):
        model = load_robot("iiwa")
        q0, qd0, us = _rollout_inputs(model, 6, seed=1)
        with DynamicsService(n_shards=1) as service:
            result = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3, scheme="rk4"
            ).result(timeout=30)
        assert isinstance(result, RolloutServeResult)
        assert result.scheme == "rk4"
        assert result.horizon == 6
        direct = RolloutEngine("rk4", engine=result.engine).rollout(
            model, q0, qd0, us, dt=1e-3
        )
        assert np.allclose(result.value.qs, direct.qs[0], atol=1e-12)

    def test_contact_rollout_through_service(self):
        model = load_robot("hyq")
        feet = _feet(model)
        q0, qd0, us = _rollout_inputs(model, 4, seed=2)
        mask = np.ones((4, 2), dtype=bool)
        mask[2:] = False
        with DynamicsService(n_shards=1) as service:
            result = service.submit_rollout(
                "hyq", q0, qd0, us, dt=1e-3, contacts=feet,
                contact_mask=mask,
            ).result(timeout=30)
        assert result.value.forces.shape == (4, 6)
        assert np.all(result.value.forces[2:] == 0.0)
        direct = RolloutEngine("semi_implicit",
                               engine=result.engine).rollout(
            model, q0, qd0, us, dt=1e-3, contacts=feet, contact_mask=mask
        )
        assert np.allclose(result.value.qs, direct.qs[0], atol=1e-12)

    def test_same_key_rollouts_coalesce(self):
        model = load_robot("iiwa")
        policy = BatchPolicy(max_batch=4, max_wait_s=0.5)
        with DynamicsService(policy=policy, n_shards=1) as service:
            futures = [
                service.submit_rollout(
                    "iiwa", *_rollout_inputs(model, 5, seed=k), dt=1e-3
                )
                for k in range(4)
            ]
            results = [f.result(timeout=30) for f in futures]
        assert all(r.batch_size == 4 for r in results)

    def test_different_horizons_do_not_mix(self):
        model = load_robot("iiwa")
        policy = BatchPolicy(max_batch=8, max_wait_s=1e-3)
        with DynamicsService(policy=policy, n_shards=1) as service:
            f_short = service.submit_rollout(
                "iiwa", *_rollout_inputs(model, 3, seed=1), dt=1e-3
            )
            f_long = service.submit_rollout(
                "iiwa", *_rollout_inputs(model, 9, seed=2), dt=1e-3
            )
            short = f_short.result(timeout=30)
            long = f_long.result(timeout=30)
        assert short.batch_size == 1
        assert long.batch_size == 1
        assert short.horizon == 3 and long.horizon == 9

    def test_horizon_aware_flush_budget(self):
        """max_batch_cost flushes a rollout group by step volume: with a
        budget of 4 * T the group flushes at 4 rollouts even though
        max_batch would allow 64."""
        model = load_robot("iiwa")
        t = 8
        policy = BatchPolicy(max_batch=64, max_wait_s=0.5,
                             max_batch_cost=4 * t)
        with DynamicsService(policy=policy, n_shards=1) as service:
            futures = [
                service.submit_rollout(
                    "iiwa", *_rollout_inputs(model, t, seed=k), dt=1e-3
                )
                for k in range(4)
            ]
            results = [f.result(timeout=30) for f in futures]
        assert all(r.batch_size == 4 for r in results)

    def test_sensitivities_returned(self):
        model = load_robot("iiwa")
        q0, qd0, us = _rollout_inputs(model, 3, seed=4)
        with DynamicsService(n_shards=1) as service:
            result = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3, sensitivities=True
            ).result(timeout=30)
        nv = model.nv
        assert result.value.a_matrices.shape == (3, 2 * nv, 2 * nv)
        assert result.value.b_matrices.shape == (3, 2 * nv, nv)

    def test_urgent_bypasses_batcher(self):
        model = load_robot("iiwa")
        policy = BatchPolicy(max_batch=16, max_wait_s=5.0)
        with DynamicsService(policy=policy, n_shards=1) as service:
            result = service.submit_rollout(
                "iiwa", *_rollout_inputs(model, 4), dt=1e-3, urgent=True
            ).result(timeout=30)
        assert result.batch_size == 1

    def test_rollout_metrics(self):
        model = load_robot("iiwa")
        with DynamicsService(n_shards=1) as service:
            futures = [
                service.submit_rollout(
                    "iiwa", *_rollout_inputs(model, 6, seed=k), dt=1e-3
                )
                for k in range(3)
            ]
            [f.result(timeout=30) for f in futures]
            stats = service.stats()
        assert stats["rollouts_completed"] == 3
        assert stats["rollout_steps_total"] == 18
        assert stats["rollout_p50_ms"] > 0.0
        assert service.metrics.rollout_horizons() == {6: 3}

    def test_validation(self):
        model = load_robot("iiwa")
        q0, qd0, us = _rollout_inputs(model, 4)
        with DynamicsService(n_shards=1) as service:
            with pytest.raises(ValueError, match="unknown rollout scheme"):
                service.submit_rollout("iiwa", q0, qd0, us, dt=1e-3,
                                       scheme="verlet")
            with pytest.raises(ValueError, match="dt"):
                service.submit_rollout("iiwa", q0, qd0, us, dt=0.0)
            with pytest.raises(ValueError, match="q0"):
                service.submit_rollout("iiwa", q0[:-1], qd0, us, dt=1e-3)
            with pytest.raises(ValueError, match="controls"):
                service.submit_rollout("iiwa", q0, qd0, us[:, :-1], dt=1e-3)
            with pytest.raises(ValueError, match="contact_mask"):
                service.submit_rollout(
                    "iiwa", q0, qd0, us, dt=1e-3,
                    contact_mask=np.ones((4, 1), dtype=bool),
                )

    def test_request_key_and_cost(self):
        model = iiwa()
        q0, qd0, us = _rollout_inputs(model, 7)
        request = RolloutRequest(
            robot="iiwa", scheme="rk4", q0=q0, qd0=qd0, controls=us,
            dt=1e-3,
        )
        assert request.cost == 7
        assert request.horizon == 7
        assert request.key[0] == "rollout"
        hash(request.key)


class TestCostAwareBatcher:
    def test_cost_budget_flushes(self):
        model = iiwa()
        policy = BatchPolicy(max_batch=64, max_wait_s=10.0,
                             max_batch_cost=20)
        batcher = DynamicBatcher(policy)
        q0, qd0, us = _rollout_inputs(model, 8)
        first = RolloutRequest(robot="iiwa", scheme="rk4", q0=q0, qd0=qd0,
                               controls=us, dt=1e-3)
        second = RolloutRequest(robot="iiwa", scheme="rk4", q0=q0, qd0=qd0,
                                controls=us, dt=1e-3)
        third = RolloutRequest(robot="iiwa", scheme="rk4", q0=q0, qd0=qd0,
                               controls=us, dt=1e-3)
        assert batcher.add(first, 0.0) is None       # cost 8
        assert batcher.add(second, 0.0) is None      # cost 16
        batch = batcher.add(third, 0.0)              # cost 24 >= 20
        assert batch == [first, second, third]
        assert len(batcher) == 0

    def test_plain_requests_unaffected_by_default_budget(self):
        policy = BatchPolicy(max_batch=4)
        batcher = DynamicBatcher(policy)
        from repro.dynamics.functions import RBDFunction
        from repro.serve.request import ServeRequest

        for k in range(3):
            request = ServeRequest(robot="iiwa", function=RBDFunction.FD,
                                   q=np.zeros(7))
            assert request.cost == 1
            assert batcher.add(request, 0.0) is None
        request = ServeRequest(robot="iiwa", function=RBDFunction.FD,
                               q=np.zeros(7))
        assert len(batcher.add(request, 0.0)) == 4   # count flush


class TestMeasuredWeights:
    def test_recalibrate_replaces_priors(self):
        pool = ShardPool(2, "least_loaded")
        pool.shards[0].weight = pool.shards[0].prior_weight = 12.0
        pool.shards[1].weight = pool.shards[1].prior_weight = 1.0
        # Measurements say shard 1 is actually 3x faster.
        pool.recalibrate_weights({0: 100.0, 1: 300.0})
        w0, w1 = pool.shards[0].weight, pool.shards[1].weight
        assert pool.shards[0].weight_measured
        assert w1 / w0 == pytest.approx(3.0)
        # Placement now prefers the measured-faster shard under load.
        pool.shards[0].begin(2)
        pool.shards[1].begin(2)
        assert pool.select() is pool.shards[1]

    def test_unmeasured_shards_keep_prior(self):
        pool = ShardPool(2, "least_loaded")
        pool.shards[0].weight = pool.shards[0].prior_weight = 4.0
        pool.shards[1].weight = pool.shards[1].prior_weight = 2.0
        pool.recalibrate_weights({0: 400.0})
        assert pool.shards[0].weight == pytest.approx(4.0)
        assert not pool.shards[1].weight_measured
        assert pool.shards[1].weight == pytest.approx(2.0)

    def test_service_feeds_measurements_back(self):
        model = load_robot("iiwa")
        rng = np.random.default_rng(0)
        shard_configs = [ShardConfig(engine="compiled"),
                         ShardConfig(engine="loop")]
        with DynamicsService(shard_configs=shard_configs,
                             shard_policy="least_loaded") as service:
            from repro.dynamics.functions import RBDFunction

            futures = [
                service.submit("iiwa", RBDFunction.FD, model.random_q(rng),
                               np.zeros(model.nv), np.zeros(model.nv),
                               urgent=True)
                for _ in range(8)
            ]
            [f.result(timeout=30) for f in futures]
            stats = service.stats()
        measured = stats["measured_shard_rps"]
        assert measured and all(rps > 0 for rps in measured.values())
        assert any(s["weight_measured"] for s in stats["shards"])

    def test_cost_weighted_backlog(self):
        pool = ShardPool(2, "least_loaded")
        pool.shards[0].begin(1, cost=64)     # one 64-step rollout
        pool.shards[1].begin(1, cost=1)      # one plain request
        # Same request count, very different drain time.
        assert pool.select() is pool.shards[1]
        pool.shards[0].finish(0.0, 1, cost=64)
        assert pool.shards[0].inflight_cost == 0.0
