"""Windowed (streaming) rollouts: bitwise window/full equality across
integrators and the fused jit path, mid-stream cancellation, and the
serve-layer window plumbing."""

import numpy as np
import pytest

from repro.dynamics.contact import ContactPoint
from repro.model.library import load_robot
from repro.obs import Tracer
from repro.rollout import RolloutEngine, concat_windows
from repro.serve import (
    DynamicsService,
    RolloutRequest,
    StreamCancelledError,
)


def _inputs(model, t, seed=0):
    rng = np.random.default_rng(seed)
    q0 = model.random_q(rng)
    qd0 = 0.2 * rng.normal(size=model.nv)
    controls = 0.1 * rng.normal(size=(t, model.nv))
    return q0, qd0, controls


class TestWindowedEqualsFull:
    @pytest.mark.parametrize("scheme", ["euler", "semi_implicit", "rk4"])
    def test_bitwise_equal_across_schemes(self, scheme):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 17, seed=1)
        eng = RolloutEngine(scheme, engine="compiled")
        full = eng.rollout(model, q0, qd0, us, dt=1e-3)
        windows = list(eng.rollout_windows(
            model, q0, qd0, us, dt=1e-3, window=5,
        ))
        assert [(t0, t1) for t0, t1, _ in windows] == [
            (0, 5), (5, 10), (10, 15), (15, 17),
        ]
        stitched = concat_windows([r for _, _, r in windows])
        # Markovian stepping: partitioned loop, identical float ops —
        # the stream must be bitwise what the one-shot rollout was.
        assert np.array_equal(stitched.qs, full.qs)
        assert np.array_equal(stitched.qds, full.qds)
        assert np.array_equal(stitched.controls, full.controls)

    def test_bitwise_equal_fused_jit(self):
        from repro.dynamics.jit import JitEngine

        model = load_robot("iiwa")
        jit = JitEngine(backend="numpy")
        if not jit.supports_fused_rollout(model, "semi_implicit"):
            pytest.skip("jit engine cannot fuse this rollout")
        eng = RolloutEngine("semi_implicit", engine=jit)
        q0, qd0, us = _inputs(model, 16, seed=2)
        full = eng.rollout(model, q0, qd0, us, dt=1e-3)
        assert full.engine == "jit"
        windows = [r for _, _, r in eng.rollout_windows(
            model, q0, qd0, us, dt=1e-3, window=4,
        )]
        # Every eligible window takes the fused-scan path on its own.
        assert all(w.engine == "jit" for w in windows)
        stitched = concat_windows(windows)
        assert np.array_equal(stitched.qs, full.qs)
        assert np.array_equal(stitched.qds, full.qds)

    def test_contact_mask_sliced_per_window(self):
        model = load_robot("hyq")
        feet = [
            ContactPoint(model.link_index(n), np.array([0.0, 0.0, -0.35]))
            for n in ("lf_kfe", "rh_kfe")
        ]
        t = 8
        mask = np.ones((t, 2), dtype=bool)
        mask[5:] = False
        q0, qd0, us = _inputs(model, t, seed=3)
        eng = RolloutEngine("semi_implicit", engine="compiled")
        full = eng.rollout(model, q0, qd0, us, dt=1e-3, contacts=feet,
                           contact_mask=mask)
        stitched = concat_windows([r for _, _, r in eng.rollout_windows(
            model, q0, qd0, us, dt=1e-3, window=3, contacts=feet,
            contact_mask=mask,
        )])
        assert np.array_equal(stitched.qs, full.qs)
        assert np.array_equal(stitched.forces, full.forces)
        assert np.array_equal(stitched.active, full.active)

    def test_cancel_between_windows_stops_generator(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 20, seed=4)
        eng = RolloutEngine("semi_implicit", engine="compiled")
        seen = []
        gen = eng.rollout_windows(
            model, q0, qd0, us, dt=1e-3, window=4,
            cancelled=lambda: len(seen) >= 2,
        )
        for t0, t1, _ in gen:
            seen.append((t0, t1))
        # Cancelled after the second window: the tail never simulates.
        assert seen == [(0, 4), (4, 8)]

    def test_window_validation(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 6)
        eng = RolloutEngine("euler", engine="compiled")
        with pytest.raises(ValueError, match="window"):
            list(eng.rollout_windows(model, q0, qd0, us, dt=1e-3,
                                     window=0))


class TestServeStreaming:
    def test_windowed_submit_matches_plain(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 14, seed=5)
        seen = []
        with DynamicsService(n_shards=1) as service:
            fut = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3, scheme="rk4", window=4,
                on_window=lambda t0, t1, traj, done:
                    seen.append((t0, t1, done)),
            )
            windowed = fut.result(timeout=30)
            plain = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3, scheme="rk4",
            ).result(timeout=30)
        assert windowed.windows == 4
        assert plain.windows == 0
        assert seen == [(0, 4, False), (4, 8, False), (8, 12, False),
                        (12, 14, True)]
        assert np.array_equal(windowed.value.qs, plain.value.qs)
        assert np.array_equal(windowed.value.qds, plain.value.qds)
        for field in ("modeled_latency_cycles", "modeled_makespan_cycles",
                      "batch_size", "engine", "backend"):
            assert getattr(windowed, field) == getattr(plain, field), field

    def test_window_spans_booked_per_streamed_window(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 12, seed=7)
        tracer = Tracer()

        def queued_trace_ids():
            return [s.trace_id for s in tracer.spans()
                    if s.name == "serve.queue"]

        with DynamicsService(n_shards=1, tracer=tracer) as service:
            service.submit_rollout("iiwa", q0, qd0, us, dt=1e-3,
                                   window=4).result(timeout=30)
            (streamed,) = queued_trace_ids()
            service.submit_rollout("iiwa", q0, qd0, us,
                                   dt=1e-3).result(timeout=30)
            (whole,) = set(queued_trace_ids()) - {streamed}
        windows = [s for s in tracer.spans() if s.name == "serve.window"]
        assert len(windows) == 3
        assert all(s.trace_id == streamed for s in windows)
        assert [(s.args["t0"], s.args["t1"]) for s in windows] == [
            (0, 4), (4, 8), (8, 12),
        ]
        assert not [s for s in tracer.trace(whole)
                    if s.name == "serve.window"]

    def test_window_is_part_of_coalescing_key(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 6)
        a = RolloutRequest(robot="iiwa", q0=q0, qd0=qd0, controls=us,
                           dt=1e-3, scheme="semi_implicit")
        b = RolloutRequest(robot="iiwa", q0=q0, qd0=qd0, controls=us,
                           dt=1e-3, scheme="semi_implicit", window=3)
        assert a.key != b.key

    def test_mid_stream_cancel_frees_capacity(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 64, seed=6)
        with DynamicsService(n_shards=1) as service:
            fut = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3, window=4,
                on_window=lambda t0, t1, traj, done: fut.cancel_stream(),
            )
            with pytest.raises(StreamCancelledError,
                               match=r"cancelled after 4/64"):
                fut.result(timeout=30)
            # The shard is free again: a follow-up request is served.
            after = service.submit_rollout(
                "iiwa", q0, qd0, us[:8], dt=1e-3,
            ).result(timeout=30)
            assert after.horizon == 8
            assert service.stats()["accepted"] == 2

    def test_on_window_exception_does_not_fail_request(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 8, seed=7)

        def bad_callback(t0, t1, traj, done):
            raise RuntimeError("client bug")

        with DynamicsService(n_shards=1) as service:
            result = service.submit_rollout(
                "iiwa", q0, qd0, us, dt=1e-3, window=4,
                on_window=bad_callback,
            ).result(timeout=30)
        assert result.windows == 2
        assert result.value.qs.shape[0] == 9

    def test_window_rejects_sensitivities(self):
        model = load_robot("iiwa")
        q0, qd0, us = _inputs(model, 6)
        with DynamicsService(n_shards=1) as service:
            with pytest.raises(ValueError, match="sensitivity"):
                service.submit_rollout(
                    "iiwa", q0, qd0, us, dt=1e-3, window=3,
                    sensitivities=True,
                )
            with pytest.raises(ValueError, match="window"):
                service.submit_rollout(
                    "iiwa", q0, qd0, us, dt=1e-3, window=0,
                )
