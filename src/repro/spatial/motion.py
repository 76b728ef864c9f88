"""Spatial (6D) cross-product operators.

Motion vectors are ``[w; v]`` (angular on top), force vectors are ``[n; f]``
(couple on top).  ``crm(v)`` is the motion-cross operator (``v x m``) and
``crf(v) = -crm(v).T`` is the force-cross operator (``v x* f``), following
Featherstone's notation.

Every operator broadcasts over leading batch axes: ``(..., 6)`` inputs give
``(..., 6, 6)`` operators / ``(..., 6)`` products, so one call applies the
operation to a whole task batch at once.  Array math routes through
:mod:`repro.backend` — the namespace of the operands decides where the
operators are built (host numpy, or an in-place device backend like
cupy; immutable-array backends resolve to the host).
"""

from __future__ import annotations

from repro.backend import array_namespace
from repro.spatial.so3 import skew


def crm(v):
    """6x6 motion cross-product operator: ``crm(v) @ m == v x m``."""
    xp = array_namespace(v)
    v = xp.asarray(v, dtype=float)
    sw = skew(v[..., :3])
    sv = skew(v[..., 3:])
    out = xp.zeros(v.shape[:-1] + (6, 6))
    out[..., :3, :3] = sw
    out[..., 3:, :3] = sv
    out[..., 3:, 3:] = sw
    return out


def crf(v):
    """6x6 force cross-product operator: ``crf(v) @ f == v x* f == -crm(v).T @ f``."""
    xp = array_namespace(v)
    return -xp.swapaxes(crm(v), -1, -2)


def cross3(a, b, out=None):
    """``a x b`` for 3-vectors on the last axis, by components.

    Evaluates ``a1*b2 - a2*b1`` and its two cyclic shifts — the products
    and differences ``numpy.cross`` forms, so results are bitwise equal —
    without ``numpy.cross``'s axis normalisation and ``moveaxis`` calls,
    which dominate its cost on the small slabs of the level sweeps.
    ``out`` (default: a new array of the broadcast shape) must not alias
    ``a`` or ``b``.
    """
    xp = array_namespace(a, b)
    if out is None:
        out = xp.empty(xp.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def cross_motion(a, b):
    """``a x b`` for motion vectors, without building the 6x6 operator."""
    xp = array_namespace(a, b)
    a = xp.asarray(a, dtype=float)
    b = xp.asarray(b, dtype=float)
    w, v = a[..., :3], a[..., 3:]
    out = xp.empty(xp.broadcast_shapes(a.shape, b.shape))
    cross3(w, b[..., :3], out[..., :3])
    cross3(v, b[..., :3], out[..., 3:])
    out[..., 3:] += cross3(w, b[..., 3:])
    return out


def cross_force(a, f):
    """``a x* f`` for a motion vector ``a`` acting on a force vector ``f``."""
    xp = array_namespace(a, f)
    a = xp.asarray(a, dtype=float)
    f = xp.asarray(f, dtype=float)
    w, v = a[..., :3], a[..., 3:]
    out = xp.empty(xp.broadcast_shapes(a.shape, f.shape))
    cross3(w, f[..., :3], out[..., :3])
    out[..., :3] += cross3(v, f[..., 3:])
    cross3(w, f[..., 3:], out[..., 3:])
    return out


def crf_bar(f):
    """Operator with ``crf_bar(f) @ a == a x* f`` (swaps the arguments of crf).

    Used by the analytical derivatives: the term ``(d_u v) x* (I v)`` becomes
    ``crf_bar(I v) @ d_u v`` so a whole derivative matrix can be multiplied at
    once.  For ``f = [n; g]``::

        crf_bar(f) = -[[skew(n), skew(g)],
                       [skew(g), 0      ]]
    """
    xp = array_namespace(f)
    f = xp.asarray(f, dtype=float)
    sn = skew(f[..., :3])
    sg = skew(f[..., 3:])
    out = xp.zeros(f.shape[:-1] + (6, 6))
    out[..., :3, :3] = -sn
    out[..., :3, 3:] = -sg
    out[..., 3:, :3] = -sg
    return out
