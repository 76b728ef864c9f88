"""The async serving plane: admission control, the awaitable gateway,
the socket server/client pair, the autoscaler, and the load harness."""

import asyncio

import numpy as np
import pytest

from repro.aserve import (
    AdmissionController,
    AsyncDynamicsServer,
    AsyncGateway,
    AsyncServeClient,
    Autoscaler,
    ClientOverloaded,
    RateLimitedError,
    RemoteServeError,
    TenantPolicy,
    TokenBucket,
    run_async_load,
)
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot
from repro.serve import DynamicsService, StreamCancelledError


def _inputs(t, seed=0, nv=7):
    rng = np.random.default_rng(seed)
    model = load_robot("iiwa")
    q0 = model.random_q(rng)
    qd0 = 0.1 * rng.normal(size=nv)
    controls = 0.05 * rng.normal(size=(t, nv))
    return q0, qd0, controls


class _Clock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestTokenBucket:
    def test_starts_full_then_refills(self):
        clock = _Clock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        assert bucket.take(5.0)
        assert not bucket.take(1.0)
        assert bucket.wait_time(1.0) == pytest.approx(0.1)
        clock.t = 0.25
        assert bucket.take(2.0)
        assert bucket.tokens == pytest.approx(0.5)
        clock.t = 100.0
        assert bucket.tokens == pytest.approx(5.0)  # capped at burst

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.0)


class TestTenantPolicy:
    def test_urgent_tracks_priority(self):
        assert TenantPolicy(priority="interactive").urgent
        assert not TenantPolicy(priority="standard").urgent
        assert not TenantPolicy(priority="batch").urgent

    def test_validation(self):
        with pytest.raises(ValueError, match="priority"):
            TenantPolicy(priority="vip")
        with pytest.raises(ValueError, match="max_inflight"):
            TenantPolicy(max_inflight=0)


class TestAdmissionController:
    def test_rate_limit_reports_retry_after(self):
        clock = _Clock()
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate_rps=1.0, burst=2.0))
        ctl.admit("t", cost=2.0)
        with pytest.raises(RateLimitedError) as exc:
            ctl.admit("t", cost=1.0)
        assert exc.value.retry_after_s == pytest.approx(1.0)
        stats = ctl.stats()["t"]
        assert stats["admitted"] == 1
        assert stats["rate_limited"] == 1

    def test_inflight_cap_checked_before_bucket(self):
        clock = _Clock()
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate_rps=1e-6, burst=10.0,
                                         max_inflight=1))
        ctl.admit("t", cost=1.0)
        with pytest.raises(ClientOverloaded):
            ctl.admit("t", cost=1.0)
        # A backpressure refusal must not burn bucket tokens.
        assert ctl.stats()["t"]["tokens"] == pytest.approx(9.0)
        ctl.release("t")
        ctl.admit("t", cost=1.0)
        assert ctl.stats()["t"]["inflight"] == 1

    def test_unknown_tenant_gets_default_policy(self):
        ctl = AdmissionController(
            default_policy=TenantPolicy(priority="batch"))
        assert ctl.admit("anyone").priority == "batch"
        assert ctl.policy_for("anyone").priority == "batch"


class TestGateway:
    def test_submit_and_rollout_roundtrip(self):
        q0, qd0, us = _inputs(6, seed=1)
        with DynamicsService(n_shards=1) as service:
            gw = AsyncGateway(service)

            async def run():
                res = await gw.submit(
                    "iiwa", RBDFunction.FD, q0, qd0, np.zeros(7))
                roll = await gw.submit_rollout("iiwa", q0, qd0, us, 1e-3)
                return res, roll

            res, roll = asyncio.run(run())
            direct = service.submit(
                "iiwa", RBDFunction.FD, q0, qd=qd0, u=np.zeros(7),
            ).result(timeout=30)
            assert np.array_equal(res.value, direct.value)
            assert roll.horizon == 6
            # Admission slots drained back on completion.
            assert all(t["inflight"] == 0
                       for t in gw.admission.stats().values())

    def test_stream_matches_plain(self):
        q0, qd0, us = _inputs(12, seed=2)
        with DynamicsService(n_shards=1) as service:
            gw = AsyncGateway(service)

            async def run():
                plain = await gw.submit_rollout("iiwa", q0, qd0, us, 1e-3)
                stream = await gw.stream_rollout(
                    "iiwa", q0, qd0, us, 1e-3, window=5)
                spans = []
                async for w in stream:
                    spans.append((w.t0, w.t1, w.done))
                return plain, spans, await stream.result()

            plain, spans, result = asyncio.run(run())
        assert spans == [(0, 5, False), (5, 10, False), (10, 12, True)]
        assert result.windows == 3
        assert np.array_equal(result.value.qs, plain.value.qs)
        assert np.array_equal(result.value.qds, plain.value.qds)

    def test_stream_cancel_raises_and_frees(self):
        q0, qd0, us = _inputs(64, seed=3)
        with DynamicsService(n_shards=1) as service:
            gw = AsyncGateway(service)

            async def run():
                stream = await gw.stream_rollout(
                    "iiwa", q0, qd0, us, 1e-3, window=2, tenant="mpc")
                async for w in stream:
                    stream.cancel()
                    break
                with pytest.raises(Exception, match="cancelled after"):
                    await stream.result()
                # Iteration after cancel ends cleanly, and capacity is
                # back: a fresh rollout on the same shard completes.
                roll = await gw.submit_rollout(
                    "iiwa", q0, qd0, us[:4], 1e-3, tenant="mpc")
                return roll

            roll = asyncio.run(run())
            assert roll.horizon == 4
            assert gw.admission.stats()["mpc"]["inflight"] == 0

    def test_cancel_after_last_window_still_raises(self):
        """A cancel that lands after the shard finished the rollout
        abandons its result all the same."""
        q0, qd0, us = _inputs(8, seed=3)
        with DynamicsService(n_shards=1) as service:
            gw = AsyncGateway(service)

            async def run():
                stream = await gw.stream_rollout(
                    "iiwa", q0, qd0, us, 1e-3, window=2, tenant="mpc")
                windows = [w async for w in stream]
                stream.cancel()
                with pytest.raises(StreamCancelledError,
                                   match="cancelled after 8/8"):
                    await stream.result()
                return windows

            windows = asyncio.run(run())
            assert windows[-1].done
            assert gw.admission.stats()["mpc"]["inflight"] == 0

    def test_rate_limited_tenant_refused(self):
        q0, qd0, us = _inputs(8, seed=4)
        with DynamicsService(n_shards=1) as service:
            gw = AsyncGateway(service)
            gw.set_policy("small", TenantPolicy(rate_rps=1.0, burst=8.0))

            async def run():
                await gw.submit_rollout("iiwa", q0, qd0, us, 1e-3,
                                        tenant="small")
                with pytest.raises(RateLimitedError) as exc:
                    await gw.submit_rollout("iiwa", q0, qd0, us, 1e-3,
                                            tenant="small")
                return exc.value.retry_after_s

            retry_after = asyncio.run(run())
        assert retry_after > 1.0

    def test_policy_defaults_propagate(self, monkeypatch):
        q0, qd0, _ = _inputs(4, seed=5)
        with DynamicsService(n_shards=1) as service:
            gw = AsyncGateway(service)
            gw.set_policy("mpc", TenantPolicy(priority="interactive",
                                              deadline_s=12.5))
            captured = {}
            real = service.submit

            def spy(*args, **kwargs):
                captured.update(kwargs)
                return real(*args, **kwargs)

            monkeypatch.setattr(service, "submit", spy)

            async def run():
                await gw.submit("iiwa", RBDFunction.FD, q0, qd0,
                                np.zeros(7), tenant="mpc")
                first = dict(captured)
                await gw.submit("iiwa", RBDFunction.FD, q0, qd0,
                                np.zeros(7), tenant="mpc",
                                urgent=False, deadline_s=30.0)
                return first, dict(captured)

            first, second = asyncio.run(run())
        # Interactive tenants default onto the urgent bypass with their
        # policy deadline; explicit per-request values override.
        assert first["urgent"] is True
        assert first["deadline_s"] == 12.5
        assert second["urgent"] is False
        assert second["deadline_s"] == 30.0


def _with_server(service, fn, **connect_kw):
    async def run():
        async with AsyncDynamicsServer(service, port=0) as server:
            client = await AsyncServeClient.connect(
                "127.0.0.1", server.port, **connect_kw)
            try:
                return await fn(client, server)
            finally:
                await client.close()

    return asyncio.run(run())


class TestSocketServer:
    def test_ping_submit_and_rollout(self):
        q0, qd0, us = _inputs(6, seed=6)
        with DynamicsService(n_shards=1) as service:
            direct = service.submit(
                "iiwa", RBDFunction.FD, q0, qd=qd0, u=np.zeros(7),
            ).result(timeout=30)

            async def scenario(client, server):
                pong = await client.ping()
                sub = await client.submit("iiwa", "FD", q0, qd0,
                                          np.zeros(7))
                roll = await client.submit_rollout("iiwa", q0, qd0, us,
                                                   dt=1e-3)
                return pong, sub, roll

            pong, sub, roll = _with_server(service, scenario)
        assert pong["ok"]
        assert np.allclose(np.asarray(sub["value"]), direct.value,
                           atol=0.0)
        assert np.asarray(roll["qs"]).shape == (7, 7)
        assert roll["horizon"] == 6

    def test_streaming_over_the_wire(self):
        q0, qd0, us = _inputs(12, seed=7)
        with DynamicsService(n_shards=1) as service:

            async def scenario(client, server):
                stream = await client.stream_rollout(
                    "iiwa", q0, qd0, us, dt=1e-3, window=5)
                windows = []
                async for payload in stream:
                    windows.append(tuple(payload["window"]))
                final = await stream.result()
                return windows, final

            windows, final = _with_server(service, scenario)
            plain = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3,
            ).result(timeout=30)
        assert windows == [(0, 5), (5, 10), (10, 12)]
        assert final["done"] and final["windows"] == 3
        assert np.allclose(np.asarray(final["qs"]), plain.value.qs,
                           atol=0.0)

    def test_remote_cancel_mid_stream(self):
        q0, qd0, us = _inputs(64, seed=8)
        with DynamicsService(n_shards=1) as service:

            async def scenario(client, server):
                stream = await client.stream_rollout(
                    "iiwa", q0, qd0, us, dt=1e-3, window=2)
                async for payload in stream:
                    await stream.cancel()
                    break
                # Drained to StopAsyncIteration without raising.
                async for payload in stream:
                    pass
                after = await client.submit_rollout("iiwa", q0, qd0,
                                                    us[:4], dt=1e-3)
                return after

            after = _with_server(service, scenario)
        assert after["horizon"] == 4

    def test_hello_policy_rate_limits_connection(self):
        q0, qd0, us = _inputs(8, seed=9)
        with DynamicsService(n_shards=1) as service:

            async def scenario(client, server):
                await client.submit_rollout("iiwa", q0, qd0, us, dt=1e-3)
                with pytest.raises(RemoteServeError) as exc:
                    await client.submit_rollout("iiwa", q0, qd0, us,
                                                dt=1e-3)
                return exc.value

            error = _with_server(service, scenario, tenant="capped",
                                 rate_rps=1.0, burst=8.0)
        assert error.kind == "RateLimitedError"
        assert error.retry_after_s > 1.0

    def test_admin_surface_scales_pool(self):
        with DynamicsService(n_shards=1) as service:

            async def scenario(client, server):
                snap = await client.admin()
                grown = await client.admin("scale_up")
                shrunk = await client.admin("scale_down")
                return snap, grown, shrunk

            snap, grown, shrunk = _with_server(service, scenario)
        assert snap["active_shards"] == 1
        assert len(snap["shards"]) == 1
        assert grown["active_shards"] == 2
        assert shrunk["active_shards"] == 1
        actions = [e["action"] for e in shrunk["scale_events"]]
        assert actions == ["add", "remove"]

    def test_telemetry_over_the_wire(self):
        q0, qd0, _ = _inputs(4, seed=10)
        with DynamicsService(n_shards=1) as service:

            async def scenario(client, server):
                await client.submit("iiwa", "FD", q0, qd0, np.zeros(7))
                return await client.telemetry()

            doc = _with_server(service, scenario)
        assert "pool_active_shards" in doc
        assert "serve_submitted_cost_total" in doc

    def test_http_endpoints_share_the_port(self):
        with DynamicsService(n_shards=1) as service:

            async def fetch(port, path):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(f"GET {path} HTTP/1.1\r\n"
                             f"Host: x\r\n\r\n".encode())
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw.decode()

            async def scenario():
                async with AsyncDynamicsServer(service,
                                               port=0) as server:
                    metrics = await fetch(server.port, "/metrics")
                    health = await fetch(server.port, "/healthz")
                    missing = await fetch(server.port, "/nope")
                    return metrics, health, missing

            metrics, health, missing = asyncio.run(scenario())
        assert metrics.startswith("HTTP/1.1 200")
        assert "pool_active_shards" in metrics
        assert health.startswith("HTTP/1.1 200")
        assert '"active_shards": 1' in health
        assert missing.startswith("HTTP/1.1 404")


class TestAutoscaler:
    def test_tick_grows_and_shrinks_deterministically(self, monkeypatch):
        import time as _time

        with DynamicsService(n_shards=1) as service:
            cost = {"v": 0}
            monkeypatch.setattr(service, "submitted_cost",
                                lambda: cost["v"])
            monkeypatch.setattr(service.metrics, "measured_shard_rps",
                                lambda: {0: 100.0})
            scaler = Autoscaler(service, min_shards=1, max_shards=2,
                                cooldown_s=0.2)
            n0 = _time.monotonic() + 10.0
            scaler.tick(now=n0)                      # baseline
            cost["v"] = 200                          # 200 units in 1 s
            assert scaler.tick(now=n0 + 1.0) == "up"
            assert service.pool.n_active == 2
            cost["v"] = 250                          # still hot, but...
            assert scaler.tick(now=n0 + 1.1) is None  # ...cooling down
            assert scaler.tick(now=n0 + 3.0) == "down"  # demand died
            assert service.pool.n_active == 1
            # min_shards floor: idle forever, never shrinks below 1.
            assert scaler.tick(now=n0 + 6.0) is None
            stats = scaler.stats()
        assert stats["scale_ups"] == 1
        assert stats["scale_downs"] == 1
        assert stats["ticks"] == 5

    def test_validation(self):
        with DynamicsService(n_shards=1) as service:
            with pytest.raises(ValueError, match="min_shards"):
                Autoscaler(service, min_shards=3, max_shards=2)
            with pytest.raises(ValueError, match="watermark"):
                Autoscaler(service, high_watermark=0.2,
                           low_watermark=0.5)


class TestLoadHarness:
    def test_small_mixed_load_is_clean(self):
        report = run_async_load(
            n_clients=8, mpc_fraction=0.25, requests_per_client=2,
            plans_per_client=1, horizon=8, window=4, n_shards=1,
            rate_rps=50.0, seed=1,
        )
        assert report["availability"] == 1.0
        assert report["poisson"]["failed"] == 0
        assert report["mpc"]["failed"] == 0
        assert report["mpc"]["first_window_p95_ms"] > 0.0


class TestCLI:
    def test_serve_client_selftest(self, capsys):
        from repro.__main__ import main

        rc = main(["serve-client", "--selftest", "--requests", "2",
                   "--horizon", "8", "--window", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "selftest OK" in out
