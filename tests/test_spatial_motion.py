"""Unit tests for spatial cross-product operators."""

import numpy as np
import pytest

from repro.spatial.motion import (
    crf,
    crf_bar,
    crm,
    cross3,
    cross_force,
    cross_motion,
)
from repro.spatial.random import random_rotation
from repro.spatial.transforms import spatial_transform


class TestCrm:
    def test_matches_cross_motion(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(crm(a) @ b, cross_motion(a, b))

    def test_antisymmetric_in_arguments(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(cross_motion(a, b), -cross_motion(b, a))

    def test_self_cross_zero(self, rng):
        a = rng.normal(size=6)
        assert np.allclose(cross_motion(a, a), 0)

    def test_jacobi_identity(self, rng):
        a, b, c = (rng.normal(size=6) for _ in range(3))
        total = (
            cross_motion(a, cross_motion(b, c))
            + cross_motion(b, cross_motion(c, a))
            + cross_motion(c, cross_motion(a, b))
        )
        assert np.allclose(total, 0, atol=1e-12)


class TestCrf:
    def test_crf_is_minus_crm_transpose(self, rng):
        a = rng.normal(size=6)
        assert np.allclose(crf(a), -crm(a).T)

    def test_matches_cross_force(self, rng):
        a, f = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(crf(a) @ f, cross_force(a, f))

    def test_power_identity(self, rng):
        # (v x m) . f == -m . (v x* f): duality of the two cross products.
        v, m, f = (rng.normal(size=6) for _ in range(3))
        assert np.isclose(cross_motion(v, m) @ f, -(m @ cross_force(v, f)))


class TestCrfBar:
    def test_swaps_arguments(self, rng):
        a, f = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(crf_bar(f) @ a, cross_force(a, f))

    def test_linear_in_f(self, rng):
        f1, f2 = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(crf_bar(f1 + f2), crf_bar(f1) + crf_bar(f2))


class TestTransformCompatibility:
    def test_cross_commutes_with_transform(self, rng):
        # X (a x b) == (X a) x (X b) for motion vectors.
        x = spatial_transform(random_rotation(rng), rng.normal(size=3))
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(
            x @ cross_motion(a, b), cross_motion(x @ a, x @ b), atol=1e-10
        )

    def test_crm_conjugation(self, rng):
        # X crm(s) X^{-1} == crm(X s): the identity behind joint reversal.
        from repro.spatial.transforms import inverse_transform

        x = spatial_transform(random_rotation(rng), rng.normal(size=3))
        s = rng.normal(size=6)
        assert np.allclose(
            x @ crm(s) @ inverse_transform(x), crm(x @ s), atol=1e-10
        )


def _np_cross_motion(a, b):
    """``cross_motion`` written with ``numpy.cross`` (the formulation the
    component arithmetic replaces)."""
    w, v = a[..., :3], a[..., 3:]
    top = np.cross(w, b[..., :3])
    bottom = np.cross(v, b[..., :3]) + np.cross(w, b[..., 3:])
    return np.concatenate([top, bottom], axis=-1)


def _np_cross_force(a, f):
    w, v = a[..., :3], a[..., 3:]
    top = np.cross(w, f[..., :3]) + np.cross(v, f[..., 3:])
    bottom = np.cross(w, f[..., 3:])
    return np.concatenate([top, bottom], axis=-1)


class TestComponentCross:
    """The component cross products are bitwise ``numpy.cross``."""

    @staticmethod
    def _operands(rng, kind):
        if kind == "single":
            return rng.normal(size=6), rng.normal(size=6)
        if kind == "batch":
            return rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        if kind == "broadcast":
            return rng.normal(size=(4, 3, 6)), rng.normal(size=(3, 6))
        # Strided slab views, as the level sweeps pass them.
        v = rng.normal(size=(4, 7, 6))
        vj = rng.normal(size=(4, 7, 6))
        return v[:, 2:5], vj[:, 2:5]

    @pytest.mark.parametrize("kind",
                             ["single", "batch", "broadcast", "slab"])
    def test_bitwise_numpy_cross(self, rng, kind):
        a, b = self._operands(rng, kind)
        for ours, ref in ((cross_motion, _np_cross_motion),
                          (cross_force, _np_cross_force)):
            out = ours(a, b)
            assert np.array_equal(out, ref(a, b))
            assert not np.shares_memory(out, a)
            assert not np.shares_memory(out, b)
        assert np.array_equal(cross_motion(b, a), _np_cross_motion(b, a))

    def test_cross3_bitwise_and_fresh(self, rng):
        cols = np.swapaxes(rng.normal(size=(4, 3, 9)), -1, -2)  # strided
        p = rng.normal(size=3)
        out = cross3(cols, p)
        assert np.array_equal(out, np.cross(cols, p))
        assert not np.shares_memory(out, cols)
