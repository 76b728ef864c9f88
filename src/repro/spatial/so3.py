"""Rotation (SO3) utilities used by the spatial algebra layer.

Conventions follow Featherstone, *Rigid Body Dynamics Algorithms* (2008):
a coordinate-transform matrix ``E`` maps vector coordinates from frame A to
frame B where B is rotated relative to A, i.e. ``v_B = E @ v_A``.  For a
frame rotated by ``theta`` about the z axis this is ``rotz(theta) ==
Rz(theta).T`` where ``Rz`` is the usual rotation matrix.

``skew``, ``unskew`` and ``exp_so3`` accept leading batch axes: a ``(..., 3)``
input yields a ``(..., 3, 3)`` output with every batch element treated
independently.  This is the substrate the batched dynamics engines build
on (loop over the tree, broadcast over tasks).

Array math routes through :mod:`repro.backend`: every operator resolves
the namespace of its operands (:func:`repro.backend.array_namespace`), so
the same functions serve host numpy arrays and device arrays from any
*in-place* backend (cupy); operands from immutable-array backends (jax)
are materialized on the host by the dispatch.
"""

from __future__ import annotations

from repro.backend import array_namespace, host_backend

#: Host namespace for the scalar constructors (rotx/roty/rotz build small
#: fixed matrices from python floats).
_hx = host_backend().xp

_EPS = 1e-12


def skew(v):
    """Return the skew-symmetric matrix such that ``skew(v) @ u == v x u``.

    Accepts a ``(..., 3)`` batch of vectors and returns ``(..., 3, 3)``.
    """
    xp = array_namespace(v)
    v = xp.asarray(v, dtype=float)
    out = xp.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def unskew(m):
    """Inverse of :func:`skew`; extracts the vector of a skew-symmetric matrix.

    Accepts a ``(..., 3, 3)`` batch and returns ``(..., 3)``.
    """
    xp = array_namespace(m)
    m = xp.asarray(m)
    return xp.stack(
        [m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1
    )


def exp_so3(w):
    """Rodrigues formula: the rotation matrix ``R = exp(skew(w))``.

    ``R`` rotates vectors by angle ``|w|`` about axis ``w/|w|``.  Accepts a
    ``(..., 3)`` batch of rotation vectors and returns ``(..., 3, 3)``.
    """
    xp = array_namespace(w)
    w = xp.asarray(w, dtype=float)
    if w.ndim == 1:
        theta = float(xp.linalg.norm(w))
        if theta < _EPS:
            # Second-order series keeps exp/log round trips accurate near zero.
            k = skew(w)
            return xp.eye(3) + k + 0.5 * (k @ k)
        axis = w / theta
        k = skew(axis)
        s, c = xp.sin(theta), xp.cos(theta)
        return xp.eye(3) + s * k + (1.0 - c) * (k @ k)
    # Batched path: factor form R = I + (sin t / t) K + ((1-cos t)/t^2) K^2
    # with K = skew(w), matching the series branch as theta -> 0.
    theta = xp.linalg.norm(w, axis=-1)
    small = theta < _EPS
    safe = xp.where(small, 1.0, theta)
    a = xp.where(small, 1.0, xp.sin(safe) / safe)
    b = xp.where(small, 0.5, (1.0 - xp.cos(safe)) / (safe * safe))
    k = skew(w)
    return (
        xp.eye(3)
        + a[..., None, None] * k
        + b[..., None, None] * (k @ k)
    )


def log_so3(r):
    """Rotation vector ``w`` with ``exp_so3(w) == r`` and ``|w| <= pi``."""
    xp = array_namespace(r)
    r = xp.asarray(r, dtype=float)
    trace = float(xp.trace(r))
    cos_theta = xp.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = float(xp.arccos(cos_theta))
    if theta < 1e-10:
        return unskew(r - r.T) / 2.0
    if _hx.pi - theta < 1e-6:
        # Near pi the antisymmetric part vanishes; recover the axis from the
        # symmetric part r ~ 2*axis*axis^T - I.
        diag = xp.clip((xp.diag(r) + 1.0) / 2.0, 0.0, None)
        axis = xp.sqrt(diag)
        # Fix the signs using the off-diagonal terms relative to the largest
        # component (which is safely non-zero at theta ~ pi).
        k = int(xp.argmax(axis))
        for j in range(3):
            if j != k and r[k, j] + r[j, k] < 0:
                axis[j] = -axis[j]
        axis /= max(xp.linalg.norm(axis), _EPS)
        return theta * axis
    return theta / (2.0 * xp.sin(theta)) * unskew(r - r.T)


def rotx(theta: float):
    """Coordinate transform for a frame rotated by ``theta`` about x."""
    c, s = _hx.cos(theta), _hx.sin(theta)
    return _hx.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def roty(theta: float):
    """Coordinate transform for a frame rotated by ``theta`` about y."""
    c, s = _hx.cos(theta), _hx.sin(theta)
    return _hx.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rotz(theta: float):
    """Coordinate transform for a frame rotated by ``theta`` about z."""
    c, s = _hx.cos(theta), _hx.sin(theta)
    return _hx.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_axis(axis, theta: float):
    """Coordinate transform for a frame rotated by ``theta`` about ``axis``.

    Equals ``exp_so3(axis * theta).T`` for a unit axis, i.e. the transpose of
    the rotation matrix, matching the ``v_B = E @ v_A`` convention.
    """
    xp = array_namespace(axis)
    return exp_so3(xp.asarray(axis, dtype=float) * theta).T


def is_rotation(r, tol: float = 1e-9) -> bool:
    """True when ``r`` is orthonormal with determinant +1."""
    xp = array_namespace(r)
    r = xp.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if not xp.allclose(r @ r.T, xp.eye(3), atol=tol):
        return False
    return bool(abs(xp.linalg.det(r) - 1.0) < tol)
