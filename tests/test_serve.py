"""Tests for the repro.serve runtime: batcher, cache, pool, service."""

import numpy as np
import pytest

from repro.dynamics import (
    BatchStates,
    batch_evaluate,
    crba,
    evaluate,
)
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot
from repro.serve import (
    ArtifactCache,
    BatchPolicy,
    DynamicBatcher,
    DynamicsService,
    ServeRequest,
    ServiceClosed,
    ServiceOverloaded,
    ShardPool,
    mass_matrix_sparsity,
)


def _request(function=RBDFunction.FD, robot="iiwa", nv=7):
    return ServeRequest(robot=robot, function=function,
                        q=np.zeros(nv), qd=np.zeros(nv), u=np.zeros(nv))


class TestBatchPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=16, max_pending=8)


class TestDynamicBatcher:
    def test_flush_on_full(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=3, max_wait_s=10.0))
        assert batcher.add(_request(), now=0.0) is None
        assert batcher.add(_request(), now=0.1) is None
        batch = batcher.add(_request(), now=0.2)
        assert batch is not None and len(batch) == 3
        assert len(batcher) == 0
        assert batcher.stats.flushed_full == 1
        assert batcher.stats.occupancy == {3: 1}

    def test_flush_on_timeout(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=64, max_wait_s=1.0))
        batcher.add(_request(), now=0.0)
        batcher.add(_request(), now=0.5)
        assert batcher.poll_expired(now=0.9) == []
        flushed = batcher.poll_expired(now=1.0)
        assert len(flushed) == 1 and len(flushed[0]) == 2
        assert batcher.stats.flushed_timeout == 1

    def test_keys_do_not_mix(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_s=10.0))
        batcher.add(_request(RBDFunction.FD), now=0.0)
        batcher.add(_request(RBDFunction.ID), now=0.0)
        batch = batcher.add(_request(RBDFunction.FD), now=0.0)
        assert [r.function for r in batch] == [RBDFunction.FD] * 2
        assert len(batcher) == 1

    def test_order_preserved_within_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=4, max_wait_s=10.0))
        requests = [_request() for _ in range(4)]
        for k, r in enumerate(requests[:-1]):
            assert batcher.add(r, now=float(k)) is None
        batch = batcher.add(requests[-1], now=3.0)
        assert batch == requests

    def test_backpressure_rejects_and_counts(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch=4, max_wait_s=10.0, max_pending=4)
        )
        functions = [RBDFunction.FD, RBDFunction.ID, RBDFunction.M,
                     RBDFunction.MINV]
        for f in functions:  # distinct keys: no group ever fills
            batcher.add(_request(f), now=0.0)
        with pytest.raises(ServiceOverloaded):
            batcher.add(_request(RBDFunction.DID), now=0.0)
        assert batcher.stats.rejected == 1
        assert batcher.stats.accepted == 4

    def test_next_deadline_and_drain(self):
        policy = BatchPolicy(max_batch=8, max_wait_s=2.0)
        batcher = DynamicBatcher(policy)
        assert batcher.next_deadline() is None
        batcher.add(_request(), now=5.0)
        batcher.add(_request(RBDFunction.ID), now=3.0)
        assert batcher.next_deadline() == pytest.approx(5.0)
        flushed = batcher.drain()
        assert sorted(len(b) for b in flushed) == [1, 1]
        assert batcher.next_deadline() is None


class TestArtifactCache:
    def test_build_once(self):
        cache = ArtifactCache()
        first = cache.get("pendulum")
        again = cache.get("pendulum")
        assert first is again
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert "pendulum" in cache and len(cache) == 1
        assert first.build_seconds > 0

    def test_graph_memoized(self):
        cache = ArtifactCache()
        artifacts = cache.get("pendulum")
        g1 = artifacts.graph(RBDFunction.ID)
        assert artifacts.graph(RBDFunction.ID) is g1

    def test_mass_matrix_sparsity_matches_crba(self):
        model = load_robot("hyq")
        mask = mass_matrix_sparsity(model)
        rng = np.random.default_rng(0)
        h = crba(model, model.random_q(rng))
        assert mask.shape == h.shape
        assert np.array_equal(mask, mask.T)
        # Every numerically nonzero entry must be structurally allowed.
        assert np.all(mask[np.abs(h) > 1e-12])
        # A branched robot has genuine structural zeros (cross-leg blocks).
        assert not mask.all()


class TestShardPool:
    def test_round_robin_cycles(self):
        pool = ShardPool(3, "round_robin")
        picks = [pool.select().index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        pool.shutdown()

    def test_least_loaded_prefers_idle(self):
        pool = ShardPool(2, "least_loaded")
        pool.shards[0].begin(4)
        assert pool.select().index == 1
        pool.shards[0].finish(1000.0, 4)
        # Shard 0 now idle but carries busy cycles; shard 1 is cheaper.
        assert pool.shards[0].inflight_requests == 0
        assert pool.select().index == 1
        pool.shutdown()

    def test_cost_aware_least_loaded_weights(self):
        """A faster shard absorbs proportionally more backlog before it
        stops being least loaded."""
        pool = ShardPool(2, "least_loaded")
        pool.shards[0].weight = 10.0     # e.g. a process-engine shard
        pool.shards[1].weight = 1.0
        pool.shards[0].begin(8)          # 8/10 = 0.8 weighted backlog
        assert pool.select().index == 1  # 0 < 0.8: idle shard still wins
        pool.shards[1].begin(1)          # 1/1 = 1.0 > 0.8
        assert pool.select().index == 0  # fast shard absorbs more
        pool.shutdown()

    def test_dispatch_credits_ledger(self):
        pool = ShardPool(1)
        future = pool.dispatch(2, lambda shard: 123.0)
        assert future.result(timeout=5.0) == 123.0
        assert pool.shards[0].dispatched_requests == 2
        assert pool.busy_cycles() == [123.0]
        pool.shutdown()

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ShardPool(0)
        with pytest.raises(ValueError):
            ShardPool(2, "random")


class TestRobotMemoization:
    def test_load_robot_shared_and_fresh(self):
        a = load_robot("double_pendulum")
        b = load_robot("double_pendulum")
        c = load_robot("double_pendulum", fresh=True)
        assert a is b
        assert c is not a
        assert c.nv == a.nv

    def test_unknown_robot(self):
        with pytest.raises(KeyError, match="unknown robot"):
            load_robot("hal9000")


class TestBatchEvaluate:
    @pytest.mark.parametrize("function", list(RBDFunction),
                             ids=lambda f: f.value)
    def test_matches_direct_evaluate(self, function):
        model = load_robot("double_pendulum")
        states = BatchStates.random(model, 4, seed=1)
        rng = np.random.default_rng(2)
        u = rng.normal(size=(4, model.nv))
        minv = None
        if function is RBDFunction.DIFD:
            minv = np.stack([
                evaluate(model, RBDFunction.MINV, states.q[k])
                for k in range(4)
            ])
        results = batch_evaluate(model, function, states, u, minv=minv)
        assert len(results) == 4
        for k in range(4):
            direct = evaluate(
                model, function, states.q[k], states.qd[k], u[k],
                minv=None if minv is None else minv[k],
            )
            if hasattr(direct, "dqdd_dq"):
                np.testing.assert_allclose(results[k].qdd, direct.qdd,
                                           rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(results[k].dqdd_dq,
                                           direct.dqdd_dq,
                                           rtol=1e-9, atol=1e-12)
            elif hasattr(direct, "dtau_dq"):
                np.testing.assert_allclose(results[k].dtau_dq,
                                           direct.dtau_dq,
                                           rtol=1e-9, atol=1e-12)
            else:
                np.testing.assert_allclose(results[k], direct,
                                           rtol=1e-9, atol=1e-12)


@pytest.fixture(scope="module")
def service():
    with DynamicsService(
        BatchPolicy(max_batch=8, max_wait_s=2e-3),
        n_shards=2,
        warm_robots=["iiwa"],
    ) as svc:
        yield svc


class TestDynamicsService:
    def test_results_match_direct_evaluation_in_order(self, service):
        """Acceptance: batched service results == direct RBDFunction
        evaluation, delivered on the submission-ordered futures."""
        model = load_robot("iiwa")
        rng = np.random.default_rng(7)
        inputs, futures = [], []
        for _ in range(20):
            q, qd = model.random_state(rng)
            tau = rng.normal(size=model.nv)
            inputs.append((q, qd, tau))
            futures.append(service.submit("iiwa", RBDFunction.FD, q, qd, tau))
        for (q, qd, tau), future in zip(inputs, futures):
            result = future.result(timeout=30.0)
            direct = evaluate(model, RBDFunction.FD, q, qd, tau)
            np.testing.assert_allclose(result.value, direct,
                                       rtol=1e-12, atol=1e-12)
            assert result.batch_size >= 1
            assert result.wall_latency_s >= 0.0

    def test_flush_on_full_path(self):
        """A full group executes immediately at exactly max_batch, even
        when the timeout is far away."""
        with DynamicsService(
            BatchPolicy(max_batch=4, max_wait_s=60.0), n_shards=1
        ) as svc:
            model = load_robot("pendulum")
            rng = np.random.default_rng(8)
            futures = []
            for _ in range(4):
                q, qd = model.random_state(rng)
                futures.append(svc.submit("pendulum", RBDFunction.ID, q, qd,
                                          rng.normal(size=model.nv)))
            results = [f.result(timeout=30.0) for f in futures]
            assert all(r.batch_size == 4 for r in results)
            assert svc.batcher.stats.flushed_full == 1
            assert svc.batcher.stats.flushed_timeout == 0

    def test_flush_on_timeout_path(self, service):
        """A lone sub-batch is flushed once max_wait_s elapses."""
        model = load_robot("iiwa")
        rng = np.random.default_rng(9)
        q, qd = model.random_state(rng)
        future = service.submit("iiwa", RBDFunction.MINV, q, qd)
        result = future.result(timeout=30.0)
        assert result.batch_size < service.policy.max_batch
        direct = evaluate(model, RBDFunction.MINV, q)
        np.testing.assert_allclose(result.value, direct,
                                   rtol=1e-12, atol=1e-12)

    def test_chain_serializes_timing(self, service):
        model = load_robot("iiwa")
        rng = np.random.default_rng(10)
        qs = np.stack([model.random_q(rng) for _ in range(4)])
        qds = rng.normal(size=(4, model.nv))
        taus = rng.normal(size=(4, model.nv))
        futures = service.submit_chain("iiwa", RBDFunction.FD, qs, qds, taus)
        results = [f.result(timeout=30.0) for f in futures]
        for k, r in enumerate(results):
            direct = evaluate(model, RBDFunction.FD, qs[k], qds[k], taus[k])
            np.testing.assert_allclose(r.value, direct,
                                       rtol=1e-12, atol=1e-12)
        # A 4-chain's modeled completion must exceed a pipelined 4-batch's:
        # serial dependencies forbid overlapping the stages.
        artifacts = service.cache.get("iiwa")
        pipelined = artifacts.accelerator.profile_batch(RBDFunction.FD, 4)
        assert (results[0].modeled_makespan_cycles
                > pipelined.makespan_cycles)

    def test_mixed_robots_and_functions(self, service):
        rng = np.random.default_rng(11)
        futures = {}
        for robot in ("iiwa", "pendulum"):
            model = load_robot(robot)
            q, qd = model.random_state(rng)
            futures[robot] = (
                service.submit(robot, RBDFunction.ID, q, qd,
                               np.zeros(model.nv)),
                (model, q, qd),
            )
        for robot, (future, (model, q, qd)) in futures.items():
            result = future.result(timeout=30.0)
            direct = evaluate(model, RBDFunction.ID, q, qd,
                              np.zeros(model.nv))
            np.testing.assert_allclose(result.value, direct,
                                       rtol=1e-12, atol=1e-12)
        assert len(service.cache) >= 2

    def test_metrics_populated(self, service):
        stats = service.stats()
        assert stats["completed"] > 0
        assert stats["failed"] == 0
        assert stats["rejected"] == 0
        assert stats["mean_batch_occupancy"] >= 1.0
        assert stats["modeled_throughput_rps"] > 0
        assert len(stats["shard_busy_cycles"]) == 2
        assert sum(stats["shard_busy_cycles"]) > 0
        assert stats["cache_hits"] > 0

    def test_bad_request_rejected_at_submit(self, service):
        """Malformed inputs fail the submitting caller, not the batch —
        they must never poison co-batched requests from other clients."""
        model = load_robot("iiwa")
        with pytest.raises(ValueError, match="shape"):
            service.submit("iiwa", RBDFunction.ID, np.zeros(3))
        with pytest.raises(ValueError, match="qd"):
            service.submit("iiwa", RBDFunction.ID, np.zeros(model.nv),
                           np.zeros(2))
        with pytest.raises(ValueError, match="minv"):
            service.submit("iiwa", RBDFunction.DIFD, np.zeros(model.nv))
        with pytest.raises(ValueError, match="only accepted for diFD"):
            # A stray minv would be un-stackable with minv-less batchmates.
            service.submit("iiwa", RBDFunction.FD, np.zeros(model.nv),
                           minv=np.eye(model.nv))
        with pytest.raises(KeyError, match="unknown robot"):
            service.submit("hal9000", RBDFunction.ID, np.zeros(3))
        with pytest.raises(ValueError, match="RBDFunction"):
            # An unknown function name must fail here, not strand a
            # dispatched batch whose failure path assumes enum fields.
            service.submit("iiwa", "NotAFunction", np.zeros(model.nv))
        # Function *names* coerce to members (the CLI submits strings).
        by_name = service.submit("iiwa", "M", np.zeros(model.nv))
        assert by_name.result(timeout=30.0).value.shape == (
            model.nv, model.nv
        )
        # The service keeps serving after rejections.
        rng = np.random.default_rng(12)
        q, qd = model.random_state(rng)
        ok = service.submit("iiwa", RBDFunction.ID, q, qd,
                            np.zeros(model.nv))
        ok.result(timeout=30.0)


class TestServiceRobustness:
    def test_cancelled_future_does_not_strand_batchmates(self):
        with DynamicsService(
            BatchPolicy(max_batch=2, max_wait_s=60.0), n_shards=1
        ) as svc:
            model = load_robot("pendulum")
            first = svc.submit("pendulum", RBDFunction.M, model.neutral_q())
            assert first.cancel()
            second = svc.submit("pendulum", RBDFunction.M,
                                model.neutral_q())
            # The batch flushed on full; the cancelled future must not
            # prevent its batchmate from resolving.
            result = second.result(timeout=30.0)
            assert result.batch_size == 2
            assert svc.metrics.completed == 1

    def test_chain_backpressure(self):
        policy = BatchPolicy(max_batch=4, max_wait_s=60.0, max_pending=4)
        with DynamicsService(policy, n_shards=1) as svc:
            model = load_robot("pendulum")
            qs = np.tile(model.neutral_q(), (3, 1))
            svc.submit_chain("pendulum", RBDFunction.M, qs)
            # First chain (3) may still be outstanding; a second chain of 3
            # would exceed max_pending=4.
            with pytest.raises(ServiceOverloaded):
                for _ in range(50):
                    svc.submit_chain("pendulum", RBDFunction.M, qs)

    def test_metrics_bounded_and_zero_when_idle(self):
        from repro.serve import MetricsRegistry, Reservoir

        reservoir = Reservoir(capacity=16, seed=0)
        for v in range(1000):
            reservoir.add(float(v))
        assert len(reservoir.samples) == 16
        assert reservoir.seen == 1000

        registry = MetricsRegistry()
        assert registry.modeled_throughput_rps(1e8) == 0.0
        assert registry.wall_throughput_rps() == 0.0
        assert registry.mean_occupancy() == 0.0


class TestUrgentBypass:
    def test_urgent_skips_batcher_and_resolves_immediately(self):
        """An urgent request must not wait out a far-away flush deadline."""
        with DynamicsService(
            BatchPolicy(max_batch=64, max_wait_s=60.0), n_shards=1
        ) as svc:
            model = load_robot("pendulum")
            rng = np.random.default_rng(13)
            q, qd = model.random_state(rng)
            tau = rng.normal(size=model.nv)
            future = svc.submit("pendulum", RBDFunction.FD, q, qd, tau,
                                urgent=True)
            result = future.result(timeout=5.0)
            assert result.batch_size == 1
            direct = evaluate(model, RBDFunction.FD, q, qd, tau)
            np.testing.assert_allclose(result.value, direct,
                                       rtol=1e-12, atol=1e-12)
            assert len(svc.batcher) == 0          # never entered the batcher
            stats = svc.stats()
            assert stats["urgent"] == 1
            assert stats["accepted"] == 1

    def test_urgent_still_respects_backpressure(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=60.0, max_pending=2)
        with DynamicsService(policy, n_shards=1) as svc:
            model = load_robot("pendulum")
            qs = np.tile(model.neutral_q(), (2, 1))
            svc.submit_chain("pendulum", RBDFunction.M, qs)
            with pytest.raises(ServiceOverloaded):
                for _ in range(50):
                    svc.submit("pendulum", RBDFunction.M, model.neutral_q(),
                               urgent=True)


class TestEngineRouting:
    def test_default_engine_is_native_and_recorded(self):
        with DynamicsService(
            BatchPolicy(max_batch=4, max_wait_s=1e-3), n_shards=1
        ) as svc:
            assert svc.engine.name == "native"
            model = load_robot("pendulum")
            result = svc.submit(
                "pendulum", RBDFunction.M, model.neutral_q()
            ).result(timeout=5.0)
            assert result.engine == "native"
            stats = svc.stats()
            assert stats["engine"] == "native"
            assert stats["engine_batches"].get("native", 0) >= 1
            assert stats["engine_requests"].get("native", 0) >= 1

    def test_pinned_process_default_is_honoured(self):
        """set_default_engine beats the service's compiled fallback."""
        from repro.dynamics import set_default_engine

        set_default_engine("loop")
        try:
            with DynamicsService(
                BatchPolicy(max_batch=4, max_wait_s=1e-3), n_shards=1
            ) as svc:
                assert svc.engine.name == "loop"
        finally:
            set_default_engine(None)

    def test_plan_cached_with_artifacts(self):
        from repro.dynamics.plan import plan_for

        with DynamicsService(
            BatchPolicy(max_batch=4, max_wait_s=1e-3), n_shards=1
        ) as svc:
            artifacts = svc.cache.get("hyq")
            # The cached artifact shares the process-wide plan instance,
            # so shard workers and direct plan_for callers hit one plan.
            assert artifacts.plan is plan_for(artifacts.model)
            assert artifacts.plan.describe()["levels"] == 4

    def test_loop_engine_selectable_and_equivalent(self):
        model = load_robot("pendulum")
        rng = np.random.default_rng(14)
        q, qd = model.random_state(rng)
        tau = rng.normal(size=model.nv)
        values = {}
        for engine in ("loop", "compiled"):
            with DynamicsService(
                BatchPolicy(max_batch=4, max_wait_s=1e-3),
                n_shards=1, engine=engine,
            ) as svc:
                result = svc.submit("pendulum", RBDFunction.FD, q, qd, tau,
                                    urgent=True).result(timeout=5.0)
                assert result.engine == engine
                values[engine] = result.value
                assert svc.metrics.engine_batches() == {engine: 1}
        np.testing.assert_allclose(values["loop"], values["compiled"],
                                   rtol=1e-10, atol=1e-10)


class TestExternalForces:
    """External-force operands end to end: request -> batcher -> engine."""

    def test_f_ext_changes_result_and_matches_direct(self):
        from repro.dynamics import evaluate

        model = load_robot("hyq")
        rng = np.random.default_rng(21)
        q, qd = model.random_state(rng)
        tau = rng.normal(size=model.nv)
        f_ext = {0: rng.normal(size=6), 5: rng.normal(size=6)}
        with DynamicsService(
            BatchPolicy(max_batch=4, max_wait_s=1e-3), n_shards=1
        ) as svc:
            with_force = svc.submit("hyq", RBDFunction.FD, q, qd, tau,
                                    f_ext=f_ext).result(timeout=5.0)
            without = svc.submit("hyq", RBDFunction.FD, q, qd, tau
                                 ).result(timeout=5.0)
        direct = evaluate(model, RBDFunction.FD, q, qd, tau, f_ext=f_ext)
        np.testing.assert_allclose(with_force.value, direct,
                                   rtol=1e-10, atol=1e-10)
        assert not np.allclose(with_force.value, without.value)

    def test_mixed_batch_stacks_forces_per_task(self):
        """Force-carrying and force-free requests coalesce in one batch
        and still resolve to their own per-task values."""
        from repro.dynamics import evaluate

        model = load_robot("iiwa")
        rng = np.random.default_rng(22)
        states = [model.random_state(rng) for _ in range(3)]
        taus = [rng.normal(size=model.nv) for _ in range(3)]
        forces = [None, {2: rng.normal(size=6)}, {6: rng.normal(size=6)}]
        with DynamicsService(
            BatchPolicy(max_batch=3, max_wait_s=60.0), n_shards=1
        ) as svc:
            futures = [
                svc.submit("iiwa", RBDFunction.ID, q, qd, tau, f_ext=fe)
                for (q, qd), tau, fe in zip(states, taus, forces)
            ]
            results = [f.result(timeout=5.0) for f in futures]
        assert all(r.batch_size == 3 for r in results)
        for (q, qd), tau, fe, r in zip(states, taus, forces, results):
            direct = evaluate(model, RBDFunction.ID, q, qd, tau, f_ext=fe)
            np.testing.assert_allclose(r.value, direct,
                                       rtol=1e-10, atol=1e-10)

    def test_f_ext_validation(self):
        model = load_robot("pendulum")
        with DynamicsService(
            BatchPolicy(max_batch=4, max_wait_s=1e-3), n_shards=1
        ) as svc:
            with pytest.raises(ValueError, match="out of range"):
                svc.submit("pendulum", RBDFunction.ID, model.neutral_q(),
                           f_ext={7: np.zeros(6)})
            with pytest.raises(ValueError, match="shape"):
                svc.submit("pendulum", RBDFunction.ID, model.neutral_q(),
                           f_ext={0: np.zeros(3)})
            with pytest.raises(ValueError, match="mass-matrix"):
                svc.submit("pendulum", RBDFunction.M, model.neutral_q(),
                           f_ext={0: np.zeros(6)})


class TestServiceLifecycle:
    def test_close_rejects_new_work_and_drains(self):
        svc = DynamicsService(
            BatchPolicy(max_batch=64, max_wait_s=60.0), n_shards=1
        )
        model = load_robot("pendulum")
        future = svc.submit("pendulum", RBDFunction.M, model.neutral_q())
        svc.close()
        # Pending work was drained on close, not abandoned.
        result = future.result(timeout=30.0)
        direct = evaluate(model, RBDFunction.M, model.neutral_q())
        np.testing.assert_allclose(result.value, direct, rtol=1e-12,
                                   atol=1e-12)
        with pytest.raises(ServiceClosed):
            svc.submit("pendulum", RBDFunction.M, model.neutral_q())
        svc.close()  # idempotent
