"""Pluggable array backends: the one layer that owns ``import numpy``.

Dadu-RBD's datapath is structure-specialized but *operand-agnostic*: the
same pipelines serve every Table-I function because the schedule, not the
ALUs, encodes the robot.  The host-side analogue is that our kernels —
the spatial algebra, the compiled execution plans and their functional
mirrors — call the numpy-compatible namespace NumPy, CuPy and JAX all
provide (``backend.xp``) directly.  The shim wraps only what really
differs per runtime:

* :class:`ArrayBackend` — one array runtime: its namespace (``.xp``),
  :class:`BackendCapabilities` flags the engines consult (in-place
  workspace mutation, device, einsum-path caching, trace compilation),
  and four ops — ``einsum`` (with a memoized contraction path where the
  runtime benefits), ``jit`` and ``scan`` (real trace compilation on
  JAX, identity / python-loop fallbacks elsewhere) and ``to_numpy``
  (the host boundary).
* :func:`get_backend` — registry lookup (``"numpy" | "cupy" | "jax"``)
  with graceful *not-installed* probing: an unavailable backend raises
  :class:`BackendUnavailable` naming the missing module, never an
  ``ImportError`` mid-kernel.  ``REPRO_BACKEND`` pins the process-wide
  default the same way ``REPRO_ENGINE`` pins the engine.
* :func:`array_namespace` — cheap type-dispatch (``cupy.ndarray`` →
  ``cupy``, jax array → ``jax.numpy``, everything else → numpy) so the
  broadcasting spatial layer serves whichever arrays the caller hands it
  without per-call configuration.

Execution plans allocate their constant stacks and workspaces on a
backend (:func:`repro.dynamics.plan.plan_for` keys its memo by backend
name), so the compiled engine runs unmodified wherever the ops exist;
backends whose arrays are immutable (JAX) advertise
``capabilities.inplace = False`` and the mutating engines refuse them
with a clean :class:`BackendCapabilityError` instead of failing mid-
recursion.
"""

from __future__ import annotations

import os
import threading

import numpy as _np

from repro.errors import ReproError


class BackendUnavailable(ReproError):
    """The requested backend's runtime is not installed/usable."""


class BackendCapabilityError(ReproError):
    """The selected backend lacks a capability the caller requires."""


class BackendCapabilities:
    """What an engine may assume about a backend's arrays.

    ``inplace``
        Arrays support in-place mutation (``a[i] = v``, ``+=`` views).
        The compiled engine requires this for its preallocated
        workspaces.
    ``device``
        Where the arrays live (``"cpu"`` or ``"gpu"``); serve placement
        uses it for throughput hints only.
    ``einsum_paths``
        ``einsum`` benefits from precomputed contraction paths (NumPy/
        CuPy); JAX traces/fuses its own.
    ``jit``
        :meth:`ArrayBackend.jit` performs real trace-compilation (JAX).
        Backends without it still *run* jitted callables — ``jit`` is
        the identity — so functional kernels stay portable, just
        uncompiled.
    ``scan``
        :meth:`ArrayBackend.scan` lowers to a fused structured loop
        (``lax.scan``) instead of the python fallback, so a whole
        rollout step loop compiles into one program.
    """

    __slots__ = ("inplace", "device", "einsum_paths", "jit", "scan")

    def __init__(self, *, inplace: bool, device: str,
                 einsum_paths: bool, jit: bool = False,
                 scan: bool = False) -> None:
        self.inplace = inplace
        self.device = device
        self.einsum_paths = einsum_paths
        self.jit = jit
        self.scan = scan

    def __repr__(self) -> str:
        return (f"BackendCapabilities(inplace={self.inplace}, "
                f"device={self.device!r}, "
                f"einsum_paths={self.einsum_paths}, "
                f"jit={self.jit}, scan={self.scan})")


class ArrayBackend:
    """One array runtime: namespace, capabilities and the ops that differ.

    Kernels build and transform arrays through ``self.xp`` (the
    numpy-compatible namespace) directly.  The methods here are the four
    ops whose behaviour depends on the runtime: :meth:`einsum`,
    :meth:`jit`, :meth:`scan` and :meth:`to_numpy`.  The base class
    implements them against ``self.xp``; concrete backends override only
    what their runtime does differently.
    """

    name: str = "abstract"

    def __init__(self, xp, capabilities: BackendCapabilities) -> None:
        self.xp = xp
        self.capabilities = capabilities
        #: expr (2-operand) or (expr, shapes) -> precomputed einsum path.
        #: Two-operand contractions have a shape-independent optimal path
        #: (one pairwise contraction), so the expression alone keys them.
        self._einsum_paths: dict = {}
        self._einsum_lock = threading.Lock()

    # -- trace compilation ----------------------------------------------
    def jit(self, fn, static_argnums=()):
        """Trace-compile ``fn`` end-to-end where the runtime supports it
        (``capabilities.jit``); the host fallback returns ``fn`` as-is so
        functional kernels run everywhere, just interpreted."""
        return fn

    def scan(self, f, init, xs=None, length=None):
        """``lax.scan``-style structured fold: ``f(carry, x) -> (carry,
        y)`` applied over the leading axis of ``xs`` (or ``length``
        steps), returning ``(final_carry, stacked_ys)``.  The host
        fallback is a python loop; jit-capable backends fuse the whole
        loop into one compiled program."""
        n = length if xs is None else xs.shape[0] if hasattr(xs, "shape") \
            else len(xs)
        carry = init
        ys = []
        for t in range(n):
            carry, y = f(carry, None if xs is None else xs[t])
            ys.append(y)
        if not ys:
            return carry, None
        if isinstance(ys[0], tuple):
            stacked = tuple(
                self.xp.stack([y[k] for y in ys])
                for k in range(len(ys[0]))
            )
        else:
            stacked = self.xp.stack(ys)
        return carry, stacked

    # -- contractions ---------------------------------------------------
    def einsum(self, expr: str, *ops, out=None):
        """``einsum`` with a memoized contraction path.

        The plan's contractions run thousands of times per second on the
        serve hot path; the optimal order is derived once per expression
        (or per expression+shape for 3+ operands) and replayed.
        """
        if not self.capabilities.einsum_paths:
            if out is None:
                return self.xp.einsum(expr, *ops)
            return self.xp.einsum(expr, *ops, out=out)
        key = expr if len(ops) == 2 else (
            expr, tuple(op.shape for op in ops)
        )
        path = self._einsum_paths.get(key)
        if path is None:
            path = self.xp.einsum_path(expr, *ops, optimize="optimal")[0]
            with self._einsum_lock:
                self._einsum_paths[key] = path
        if out is None:
            return self.xp.einsum(expr, *ops, optimize=path)
        return self.xp.einsum(expr, *ops, out=out, optimize=path)

    # -- host boundary --------------------------------------------------
    def to_numpy(self, a) -> _np.ndarray:
        """Materialize a backend array on the host as ``numpy.ndarray``."""
        return _np.asarray(a)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class NumpyBackend(ArrayBackend):
    """The reference backend: host NumPy, in-place, cached einsum paths."""

    name = "numpy"

    def __init__(self) -> None:
        super().__init__(_np, BackendCapabilities(
            inplace=True, device="cpu", einsum_paths=True,
        ))

    def to_numpy(self, a) -> _np.ndarray:
        return a if isinstance(a, _np.ndarray) else _np.asarray(a)


def _make_cupy_backend() -> ArrayBackend:
    try:
        import cupy
    except ImportError as exc:
        raise BackendUnavailable(
            "backend 'cupy' is not available: the cupy package is not "
            f"installed ({exc})"
        ) from None

    class CupyBackend(ArrayBackend):
        """CUDA arrays via CuPy: in-place like NumPy, device-resident."""

        name = "cupy"

        def __init__(self) -> None:
            super().__init__(cupy, BackendCapabilities(
                inplace=True, device="gpu", einsum_paths=True,
            ))

        def to_numpy(self, a) -> _np.ndarray:
            return cupy.asnumpy(a)

    return CupyBackend()


def _make_jax_backend() -> ArrayBackend:
    try:
        import jax
        import jax.numpy as jnp
    except ImportError as exc:
        raise BackendUnavailable(
            "backend 'jax' is not available: the jax package is not "
            f"installed ({exc})"
        ) from None

    # The equivalence contract is 1e-10 against the float64 loop
    # reference; jax defaults to float32, so the backend opts into x64
    # once at construction (before any array is built).
    jax.config.update("jax_enable_x64", True)

    class JaxBackend(ArrayBackend):
        """JAX arrays: immutable (``capabilities.inplace=False``), so the
        mutating engines refuse it cleanly; the scatter-free functional
        kernels run on it and compile via ``jit``/``scan``."""

        name = "jax"

        def __init__(self) -> None:
            device = jax.default_backend()
            super().__init__(jnp, BackendCapabilities(
                inplace=False,
                device="gpu" if device in ("gpu", "tpu") else "cpu",
                einsum_paths=False,
                jit=True,
                scan=True,
            ))

        def jit(self, fn, static_argnums=()):
            return jax.jit(fn, static_argnums=static_argnums)

        def scan(self, f, init, xs=None, length=None):
            return jax.lax.scan(f, init, xs=xs, length=length)

        def to_numpy(self, a) -> _np.ndarray:
            return _np.asarray(a)

    return JaxBackend()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKEND_FACTORIES = {
    "numpy": NumpyBackend,
    "cupy": _make_cupy_backend,
    "jax": _make_jax_backend,
}
_BACKENDS: dict[str, ArrayBackend] = {}
#: name -> the BackendUnavailable a failed probe raised.  A runtime that
#: is not installed stays not-installed for the life of the process, so
#: the (slow, exception-driven) import attempt runs at most once; every
#: later ``get_backend`` replays the memoized error.
_BACKEND_FAILURES: dict[str, BackendUnavailable] = {}
_REGISTRY_LOCK = threading.Lock()

#: The host backend is always available and instantiated eagerly — it is
#: the compilation substrate every plan builds on.
_HOST = NumpyBackend()
_BACKENDS["numpy"] = _HOST

#: Process-wide default, overridable via the REPRO_BACKEND env var.  A
#: bad env value is reported lazily (first use) so importing the package
#: never fails for commands that touch no kernel.
_default_backend_name = os.environ.get("REPRO_BACKEND", "numpy")
_default_backend_explicit = "REPRO_BACKEND" in os.environ


def host_backend() -> ArrayBackend:
    """The always-available NumPy backend (the compilation substrate)."""
    return _HOST


def registered_backends() -> tuple[str, ...]:
    """Names of every backend the registry knows (installed or not)."""
    return tuple(sorted(_BACKEND_FACTORIES))


def available_backends() -> tuple[str, ...]:
    """Names of the backends whose runtime actually imports."""
    out = []
    for name in registered_backends():
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return tuple(out)


def backend_status() -> dict[str, dict]:
    """Probe every registered backend: ``{name: {available, detail}}``.

    Used by ``python -m repro engines``; probing never raises.
    """
    status = {}
    for name in registered_backends():
        try:
            backend = get_backend(name)
        except BackendUnavailable as exc:
            status[name] = {"available": False, "detail": str(exc)}
            continue
        xp = backend.xp
        version = getattr(xp, "__version__", None)
        if version is None:  # jax.numpy has no __version__
            import importlib

            version = getattr(importlib.import_module(name), "__version__",
                              "unknown")
        status[name] = {
            "available": True,
            "detail": (f"{name} {version}, device={backend.capabilities.device}, "
                       f"inplace={backend.capabilities.inplace}"),
        }
    return status


def default_backend_name() -> str:
    """The backend used when a call does not name one."""
    if _default_backend_name not in _BACKEND_FACTORIES:
        raise KeyError(
            f"REPRO_BACKEND={_default_backend_name!r} names an unknown "
            f"backend; known backends: {registered_backends()}"
        )
    return _default_backend_name


def default_backend_explicit() -> bool:
    """Whether the process default was pinned by the user."""
    return _default_backend_explicit


def set_default_backend(name: str | None) -> None:
    """Pin the process-wide default backend, or un-pin with ``None``
    (restoring the ``REPRO_BACKEND`` env var / built-in ``"numpy"``).

    The named backend must be registered *and* importable — pinning an
    uninstalled backend raises :class:`BackendUnavailable` eagerly rather
    than failing on first kernel call.
    """
    global _default_backend_name, _default_backend_explicit
    if name is None:
        _default_backend_name = os.environ.get("REPRO_BACKEND", "numpy")
        _default_backend_explicit = "REPRO_BACKEND" in os.environ
        return
    get_backend(name)  # validates registration + availability
    _default_backend_name = name
    _default_backend_explicit = True


def get_backend(backend: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend argument: instance, name, or None (the default).

    Raises :class:`KeyError` for unregistered names and
    :class:`BackendUnavailable` for registered-but-uninstalled runtimes.
    """
    if backend is None:
        backend = default_backend_name()
    if isinstance(backend, ArrayBackend):
        return backend
    cached = _BACKENDS.get(backend)
    if cached is not None:
        return cached
    failure = _BACKEND_FAILURES.get(backend)
    if failure is not None:
        raise failure
    factory = _BACKEND_FACTORIES.get(backend)
    if factory is None:
        raise KeyError(
            f"unknown backend {backend!r}; known backends: "
            f"{registered_backends()}"
        )
    try:
        instance = factory()
    except BackendUnavailable as exc:
        with _REGISTRY_LOCK:
            _BACKEND_FAILURES.setdefault(backend, exc)
        raise
    with _REGISTRY_LOCK:
        return _BACKENDS.setdefault(backend, instance)


# ---------------------------------------------------------------------------
# Namespace dispatch for the broadcasting spatial layer
# ---------------------------------------------------------------------------

#: type -> numpy-compatible namespace.  Host types are pre-seeded so the
#: overwhelmingly common all-numpy call is one dict hit per operand.
_NS_BY_TYPE: dict[type, object] = {
    _np.ndarray: _np,
    float: _np, int: _np, list: _np, tuple: _np, bool: _np,
    _np.float64: _np, _np.float32: _np, _np.int64: _np, _np.intp: _np,
}


def _resolve_namespace(cls: type):
    module = getattr(cls, "__module__", "") or ""
    root = module.split(".", 1)[0]
    if root == "cupy":
        return get_backend("cupy").xp
    if root in ("jax", "jaxlib"):
        # JAX arrays are immutable; the kernels that consult this
        # dispatch build their outputs with in-place writes, so jax
        # operands are materialized on the host instead (numpy coerces
        # them via __array__) — same behavior as before the shim.
        return _np
    return _np


def array_namespace(*arrays):
    """The numpy-compatible namespace serving these operands.

    The first array from a non-host *in-place* backend wins (mixing
    device arrays from two backends in one op is a caller bug numpy
    itself would reject); plain numbers, sequences, numpy arrays — and
    arrays from immutable-array backends like JAX, which the in-place
    kernels cannot build on directly — resolve to numpy.
    """
    for a in arrays:
        cls = a.__class__
        ns = _NS_BY_TYPE.get(cls)
        if ns is None:
            ns = _resolve_namespace(cls)
            _NS_BY_TYPE[cls] = ns
        if ns is not _np:
            return ns
    return _np


def to_host(a):
    """Materialize ``a`` on the host: numpy arrays pass through untouched,
    device arrays are transferred via their backend."""
    if isinstance(a, _np.ndarray) or not hasattr(a, "__array__"):
        return a
    ns = array_namespace(a)
    if ns is _np:
        return _np.asarray(a)
    for backend in _BACKENDS.values():
        if backend.xp is ns:
            return backend.to_numpy(a)
    return _np.asarray(a)


__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendUnavailable",
    "NumpyBackend",
    "array_namespace",
    "available_backends",
    "backend_status",
    "default_backend_explicit",
    "default_backend_name",
    "get_backend",
    "host_backend",
    "registered_backends",
    "set_default_backend",
    "to_host",
]
