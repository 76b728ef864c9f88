"""Native per-robot kernels: C generated from the execution plan.

The paper's accelerator is fast because its pipelines are configured
offline for one robot's tree.  GRiD and code-generated rigid-body
dynamics libraries do the same in software: emit code specialised to
the robot, compile it, then run it.  This module is that step for the
host.  For each robot structure it

* emits one C translation unit from the :class:`ExecutionPlan` tables
  (:func:`generate_source`): slot order, parent slots, joint kinds and
  axes, motion subspaces, tree transforms, inertias and gravity become
  ``static const`` tables; the kernels over them are the same text for
  every robot, with scratch sized by the tables at compile time;
* compiles it with the system ``cc`` into an on-disk cache keyed by the
  plan's :meth:`~repro.dynamics.plan.ExecutionPlan.structure_hash`, the
  generator version and the compiler's identity (:func:`library_dir`);
* loads it with :class:`ctypes.CDLL`, which releases the interpreter
  lock for the length of each call, so shard threads run kernels in
  parallel.

Seven entry points run ID (RNEA), M and Minv (MMinvGen, Algorithm 2),
FD (ABA) and the derivatives dID, dFD and diFD with the row loop in C,
over caller-allocated C-contiguous float64 stacks; ``f_ext`` is a dense
``(n, nb, 6)`` stack by link index, or NULL.  Every row stages its joint
transforms once and hands them to each step.  dFD is the paper's
function reuse (Eq. 3): one staging feeds the bias RNEA, MMinvGen,
``qdd = Minv (tau - C)``, the RNEA at ``qdd`` and the dRNEA sweeps of
:func:`repro.dynamics.derivatives.rnea_derivatives`, then the two
``-Minv`` products.  Scratch lives on the C stack and the library holds
no mutable global state, so calls are reentrant.

:class:`NativeEngine` (``"native"``, the default engine) subclasses
:class:`~repro.dynamics.engine.CompiledEngine`: only
:meth:`ExecutionPlan.stage` for contact solves still runs the inherited
numpy plan sweeps.  A robot whose library cannot be had (no compiler, a
joint type the generator does not emit, a compile error or timeout, no
private writable cache directory, scratch over the stack budget) runs the
inherited methods for every function instead; the reason is recorded
once per robot in :attr:`NativeEngine.fallbacks`.  A build problem is
never an error of the call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import shutil
import stat
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from repro.dynamics.engine import CompiledEngine
from repro.dynamics.plan import ExecutionPlan
from repro.model.joints import FloatingJoint
from repro.obs import hooks as _obs

#: Bumped whenever the emitted C changes, so stale libraries are rebuilt.
GENERATOR_VERSION = 4
#: A compile that takes longer than this falls back to the numpy plans.
COMPILE_TIMEOUT_S = 120.0
COMPILE_FLAGS = ("-O3", "-fPIC", "-shared")
#: Upper bound on one kernel's C-stack scratch; larger robots fall back.
MAX_STACK_BYTES = 2 << 20

#: Joint kinds the generator emits, with their C codes.  FloatingJoint
#: reaches the plan as a "generic" transform group.
_KIND_CODES = {"revolute": 0, "prismatic": 1, "floating": 2}


class NativeUnavailable(Exception):
    """Why a robot runs the numpy plans instead of generated C."""


# ---------------------------------------------------------------------------
# Compiler and cache location
# ---------------------------------------------------------------------------


def find_compiler() -> str | None:
    """Path of the system C compiler ``cc``, or None when there is none."""
    return shutil.which("cc")


@functools.lru_cache(maxsize=None)
def compiler_identity(path: str) -> str:
    """What distinguishes one compiler install from another, worked out
    from the resolved executable's metadata once per process -- never
    by running it, so loading a cached library spawns no process."""
    real = os.path.realpath(path)
    st = os.stat(real)
    return f"{real}|{st.st_size}|{st.st_mtime_ns}"


def cache_dir() -> Path:
    """The user cache directory for built libraries:
    ``$XDG_CACHE_HOME/repro-native``, else ``~/.cache/repro-native``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-native"


def _temp_cache_dir() -> Path:
    """The fallback: a directory of this user's in the temp directory."""
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _private(path: Path, kind: int) -> bool:
    """True when ``path`` is a ``kind`` (``stat.S_IFDIR``/``S_IFREG``)
    owned by this user that no other user can write.  Only such files
    are loaded: a library another user could plant or swap would run
    their code in this process."""
    st = os.stat(path)
    return (stat.S_IFMT(st.st_mode) == kind and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def library_dir() -> Path:
    """The one directory this process loads libraries from and builds
    them into: the user cache (:func:`cache_dir`), else
    ``<tempdir>/repro-native-<uid>``.  Either is created mode 0700 and
    used only if it is this user's and nobody else can write it."""
    if not hasattr(os, "getuid"):
        raise NativeUnavailable("no POSIX file ownership to check")
    tried = []
    for d in (cache_dir(), _temp_cache_dir()):
        try:
            d.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _private(d, stat.S_IFDIR):
                tried.append(f"{d}: not private to this user")
            elif not os.access(d, os.W_OK | os.X_OK):
                tried.append(f"{d}: not writable")
            else:
                return d
        except OSError as exc:
            tried.append(f"{d}: {exc.strerror or exc}")
    raise NativeUnavailable(
        "no usable cache directory (" + "; ".join(tried) + ")")


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def slot_kinds(plan: ExecutionPlan) -> list[str]:
    """The joint kind of every slot, or :class:`NativeUnavailable`
    naming the joint types the generator does not emit."""
    kinds: list[str | None] = [None] * plan.nb
    unsupported: set[str] = set()
    for g in plan.transform_groups:
        for pos, slot in enumerate(g.slots):
            if g.kind != "generic":
                kinds[int(slot)] = g.kind
            elif type(g.joints[pos]) is FloatingJoint:
                kinds[int(slot)] = "floating"
            else:
                unsupported.add(type(g.joints[pos]).__name__)
    if unsupported:
        raise NativeUnavailable(
            "unsupported joint type(s) " + ", ".join(sorted(unsupported)))
    return kinds


def _kernel_stack_bytes(nb: int, nv: int) -> dict[str, int]:
    """C-stack scratch of each kind of entry point, in bytes: its row
    frame plus the frames of its large callees (summed, in case they are
    inlined into one frame)."""
    mminv = 108 * nb + 6 * nb * nv + 7 * nv     # IA, U, DI; F; T, wl
    drnea = 24 * nb * nv + 6 * nv + 72          # D; T; g, cv
    staged = 36 * nb + 18 * nb                  # X; v, a, f
    return {k: 8 * (x + 64) for k, x in {
        "id": staged,
        "fd": 36 * nb + 132 * nb,               # X; IA, U, DI, v, c, pa, ut
        "mminv": 36 * nb + mminv,
        "derivatives": staged + 2 * nv * nv + 2 * nv + mminv + drnea,
    }.items()}


def _stack_bytes(nb: int, nv: int) -> int:
    """Scratch of the largest kernel (the derivatives)."""
    return max(_kernel_stack_bytes(nb, nv).values())


def _num(x) -> str:
    return repr(float(x))


def _table(ctype: str, name: str, rows) -> str:
    """A ``static const`` C array, one slot per line."""
    rows = [np.asarray(r).reshape(-1) for r in rows]
    width = rows[0].size
    fmt = _num if ctype == "double" else (lambda v: str(int(v)))
    shape = f"[NB][{width}]" if width > 1 else "[NB]"
    body = ",\n".join(
        "  " + ("{" + ", ".join(fmt(v) for v in r) + "}" if width > 1
                else fmt(r[0]))
        for r in rows)
    return f"static const {ctype} {name}{shape} = {{\n{body}\n}};\n"


def generate_source(plan: ExecutionPlan, key: str = "") -> str:
    """The C translation unit of ``plan``'s robot (deterministic: the
    same structure gives the same bytes).  ``key`` is embedded as
    ``repro_native_key`` so a loader can tell a stale library."""
    kinds = slot_kinds(plan)
    nb, nv = plan.nb, plan.nv
    parent = np.empty(nb, dtype=np.intp)
    q0 = np.empty(nb, dtype=np.intp)
    k = np.empty(nb, dtype=np.intp)
    sub = np.zeros((nb, 6, 6))
    for lvl in plan.levels:
        parent[lvl.lo:lvl.hi] = lvl.parent_slots
        for g in lvl.groups:
            for j in range(g.size):
                slot = g.lo + j
                q0[slot] = g.dofs[j][0]
                k[slot] = g.k
                sub[slot, :, :g.k] = g.subspaces[j]
    # End of each slot's subtree DOF span: its subtree columns lie in
    # [Q0, HI) (children follow their parents in slot order).
    hi = q0 + k
    for slot in range(nb - 1, 0, -1):
        if parent[slot] >= 0:
            hi[parent[slot]] = max(hi[parent[slot]], hi[slot])
    axis = np.zeros((nb, 3))
    x_tree = np.zeros((nb, 6, 6))
    for g in plan.transform_groups:
        for pos, slot in enumerate(g.slots):
            axis[slot] = g.axes[pos]
            x_tree[slot] = g.x_tree[pos]
    head = (
        "/* Native dynamics kernels for robot "
        f"{re.sub(r'[^A-Za-z0-9_ -]', '_', plan.robot_name)}.\n"
        f" * Generated by repro.dynamics.native (generator version "
        f"{GENERATOR_VERSION}) from the\n"
        f" * execution plan with structure hash {plan.structure_hash()}.\n"
        " * Regenerate instead of editing. */\n"
        "#include <math.h>\n#include <string.h>\n\n"
        f"#define NB {nb}\n#define NV {nv}\n\n"
        f'const char repro_native_key[] = "{key}";\n\n'
    )
    tables = "".join([
        "/* parent slot (-1: root), link index, joint kind, first DOF,\n"
        " * DOF count and subtree DOF span end of each slot, in plan slot\n"
        " * order */\n",
        _table("int", "PARENT", parent),
        _table("int", "LINK", plan.link_of_slot),
        _table("int", "KIND", [_KIND_CODES[kd] for kd in kinds]),
        _table("int", "Q0", q0),
        _table("int", "K", k),
        _table("int", "HI", hi),
        "/* joint axes, motion subspaces (6 x 6, first K columns), tree\n"
        " * transforms and spatial inertias, row-major */\n",
        _table("double", "AXIS", axis),
        _table("double", "SUB", sub),
        _table("double", "XT", x_tree),
        _table("double", "INER", plan.inertias),
        "/* root acceleration: minus gravity */\n",
        "static const double A0[6] = {"
        + ", ".join(_num(v) for v in plan.minus_gravity) + "};\n\n",
    ])
    return head + tables + _KERNELS


#: The kernels over the tables: the same text for every robot.  Loops
#: run in plan slot order (parents before children); MMinvGen keeps its
#: columns in q order, where every link's subtree columns lie in
#: ``[Q0, HI)``: the backward sweep runs at that window (the rest of
#: the row is a structural zero), the forward sweep at ``[Q0, NV)``
#: like the scalar reference.  dRNEA keeps q order too: a link's
#: forward columns lie in ``[0, Q0 + K)`` and its backward columns in
#: ``[0, HI)``; on atlas those windows ran about twice as fast as
#: full-width rows.
_KERNELS = r"""
enum { REVOLUTE = 0, PRISMATIC = 1, FLOATING = 2 };

static void mm6(const double *a, const double *b, double *c)
{
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j) {
            double s = 0.0;
            for (int m = 0; m < 6; ++m)
                s += a[i * 6 + m] * b[m * 6 + j];
            c[i * 6 + j] = s;
        }
}

/* y = a x */
static void mv6(const double *a, const double *x, double *y)
{
    for (int i = 0; i < 6; ++i) {
        double s = 0.0;
        for (int m = 0; m < 6; ++m)
            s += a[i * 6 + m] * x[m];
        y[i] = s;
    }
}

/* y = a^T x */
static void mtv6(const double *a, const double *x, double *y)
{
    for (int i = 0; i < 6; ++i) {
        double s = 0.0;
        for (int m = 0; m < 6; ++m)
            s += a[m * 6 + i] * x[m];
        y[i] = s;
    }
}

/* c += a^T b a */
static void add_congruence(const double *a, const double *b, double *c)
{
    double t[36];
    mm6(b, a, t);
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j) {
            double s = 0.0;
            for (int m = 0; m < 6; ++m)
                s += a[m * 6 + i] * t[m * 6 + j];
            c[i * 6 + j] += s;
        }
}

static void cross3(const double *a, const double *b, double *o)
{
    o[0] = a[1] * b[2] - a[2] * b[1];
    o[1] = a[2] * b[0] - a[0] * b[2];
    o[2] = a[0] * b[1] - a[1] * b[0];
}

/* o = a x b for motion vectors [w; v] */
static void cross_motion(const double *a, const double *b, double *o)
{
    double t[3];
    cross3(a, b, o);
    cross3(a + 3, b, o + 3);
    cross3(a, b + 3, t);
    o[3] += t[0]; o[4] += t[1]; o[5] += t[2];
}

/* o = a x* f for a motion vector a and a force vector f = [n; f] */
static void cross_force(const double *a, const double *f, double *o)
{
    double t[3];
    cross3(a, f, o);
    cross3(a + 3, f + 3, t);
    o[0] += t[0]; o[1] += t[1]; o[2] += t[2];
    cross3(a, f + 3, o + 3);
}

/* R = exp(skew(w)) in the factor form I + a K + b K^2, with the
 * second-order series below |w| = 1e-12 (repro.spatial.so3.exp_so3) */
static void exp_so3(const double *w, double *r)
{
    double t = sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2]);
    double a = 1.0, b = 0.5;
    if (!(t < 1e-12)) {
        a = sin(t) / t;
        b = (1.0 - cos(t)) / (t * t);
    }
    const double k[9] = {0.0, -w[2], w[1], w[2], 0.0, -w[0],
                         -w[1], w[0], 0.0};
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            double kk = 0.0;
            for (int m = 0; m < 3; ++m)
                kk += k[i * 3 + m] * k[m * 3 + j];
            r[i * 3 + j] = (i == j) + a * k[i * 3 + j] + b * kk;
        }
}

/* x = [e 0; -e skew(p) e] for the coordinate rotation e = r^T */
static void rot_xlt(const double *r, const double *p, double *x)
{
    memset(x, 0, 36 * sizeof(double));
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            x[i * 6 + j] = r[j * 3 + i];
            x[(i + 3) * 6 + j + 3] = r[j * 3 + i];
        }
    if (p) {
        const double sp[9] = {0.0, -p[2], p[1], p[2], 0.0, -p[0],
                              -p[1], p[0], 0.0};
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j) {
                double s = 0.0;
                for (int m = 0; m < 3; ++m)
                    s += r[m * 3 + i] * sp[m * 3 + j];
                x[(i + 3) * 6 + j] = -s;
            }
    }
}

/* X[s] = X_J(q_s) X_T(s) for every slot */
static void stage(const double *q, double (*X)[36])
{
    for (int s = 0; s < NB; ++s) {
        const double *qs = q + Q0[s];
        double r[9], xj[36];
        if (KIND[s] == PRISMATIC) {
            const double id[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
            double p[3];
            for (int i = 0; i < 3; ++i)
                p[i] = AXIS[s][i] * qs[0];
            rot_xlt(id, p, xj);
        } else if (KIND[s] == REVOLUTE) {
            double w[3];
            for (int i = 0; i < 3; ++i)
                w[i] = AXIS[s][i] * qs[0];
            exp_so3(w, r);
            rot_xlt(r, 0, xj);
        } else {
            exp_so3(qs, r);
            rot_xlt(r, qs + 3, xj);
        }
        mm6(xj, XT[s], X[s]);
    }
}

/* y = S_s x (x has K[s] entries) */
static void sub_mul(int s, const double *x, double *y)
{
    for (int i = 0; i < 6; ++i) {
        double t = 0.0;
        for (int j = 0; j < K[s]; ++j)
            t += SUB[s][i * 6 + j] * x[j];
        y[i] = t;
    }
}

/* y = S_s^T x */
static void sub_tmul(int s, const double *x, double *y)
{
    for (int j = 0; j < K[s]; ++j) {
        double t = 0.0;
        for (int i = 0; i < 6; ++i)
            t += SUB[s][i * 6 + j] * x[i];
        y[j] = t;
    }
}

/* u = IA S_s (6 x K, stride 6) and d = S_s^T u (K x K, stride 6) */
static void project(int s, const double *ia, double *u, double *d)
{
    const int k = K[s];
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < k; ++j) {
            double t = 0.0;
            for (int m = 0; m < 6; ++m)
                t += ia[i * 6 + m] * SUB[s][m * 6 + j];
            u[i * 6 + j] = t;
        }
    for (int i = 0; i < k; ++i)
        for (int j = 0; j < k; ++j) {
            double t = 0.0;
            for (int m = 0; m < 6; ++m)
                t += SUB[s][m * 6 + i] * u[m * 6 + j];
            d[i * 6 + j] = t;
        }
}

/* di = d^-1 for a k x k block (stride 6): Gauss-Jordan, partial pivot */
static void inv_k(const double *d, double *di, int k)
{
    if (k == 1) {
        di[0] = 1.0 / d[0];
        return;
    }
    double a[6][12];
    for (int i = 0; i < k; ++i)
        for (int j = 0; j < k; ++j) {
            a[i][j] = d[i * 6 + j];
            a[i][k + j] = (i == j);
        }
    for (int c = 0; c < k; ++c) {
        int p = c;
        for (int i = c + 1; i < k; ++i)
            if (fabs(a[i][c]) > fabs(a[p][c]))
                p = i;
        if (p != c)
            for (int j = 0; j < 2 * k; ++j) {
                double t = a[c][j];
                a[c][j] = a[p][j];
                a[p][j] = t;
            }
        const double inv = 1.0 / a[c][c];
        for (int j = 0; j < 2 * k; ++j)
            a[c][j] *= inv;
        for (int i = 0; i < k; ++i)
            if (i != c && a[i][c] != 0.0) {
                const double f = a[i][c];
                for (int j = 0; j < 2 * k; ++j)
                    a[i][j] -= f * a[c][j];
            }
    }
    for (int i = 0; i < k; ++i)
        for (int j = 0; j < k; ++j)
            di[i * 6 + j] = a[i][k + j];
}

/* v[s]: link velocities over the staged transforms X */
static void velocities(const double (*X)[36], const double *qd,
                       double (*v)[6])
{
    for (int s = 0; s < NB; ++s) {
        double vj[6], t[6];
        const int p = PARENT[s];
        sub_mul(s, qd + Q0[s], vj);
        if (p < 0) {
            memcpy(v[s], vj, sizeof vj);
        } else {
            mv6(X[s], v[p], t);
            for (int i = 0; i < 6; ++i)
                v[s][i] = t[i] + vj[i];
        }
    }
}

/* RNEA (Algorithm 1) for one row over the staged transforms X and the
 * velocities v: accelerations a, forces f (summed over each subtree once
 * the backward sweep is done) and tau */
static void rnea_row(const double (*X)[36], const double (*v)[6],
                     const double *qd, const double *qdd, const double *fe,
                     double (*a)[6], double (*f)[6], double *tau)
{
    for (int s = 0; s < NB; ++s) {
        double vj[6], aj[6], t[6], c[6], iv[6];
        const int p = PARENT[s];
        sub_mul(s, qd + Q0[s], vj);
        sub_mul(s, qdd + Q0[s], aj);
        if (p < 0) {
            mv6(X[s], A0, t);
            for (int i = 0; i < 6; ++i)
                a[s][i] = t[i] + aj[i];
        } else {
            mv6(X[s], a[p], t);
            cross_motion(v[s], vj, c);
            for (int i = 0; i < 6; ++i)
                a[s][i] = t[i] + aj[i] + c[i];
        }
        mv6(INER[s], a[s], t);
        mv6(INER[s], v[s], iv);
        cross_force(v[s], iv, c);
        for (int i = 0; i < 6; ++i)
            f[s][i] = t[i] + c[i] - (fe ? fe[LINK[s] * 6 + i] : 0.0);
    }
    for (int s = NB - 1; s >= 0; --s) {
        const int p = PARENT[s];
        sub_tmul(s, f[s], tau + Q0[s]);
        if (p >= 0) {
            double t[6];
            mtv6(X[s], f[s], t);
            for (int i = 0; i < 6; ++i)
                f[p][i] += t[i];
        }
    }
}

/* Articulated-body forward dynamics for one row over the staged X */
static void aba_row(const double (*X)[36], const double *qd,
                    const double *tau, const double *fe, double *qdd)
{
    double IA[NB][36], U[NB][36], DI[NB][36];
    double v[NB][6], c[NB][6], pa[NB][6], ut[NB][6];
    velocities(X, qd, v);
    for (int s = 0; s < NB; ++s) {
        double vj[6], iv[6];
        sub_mul(s, qd + Q0[s], vj);
        cross_motion(v[s], vj, c[s]);
        mv6(INER[s], v[s], iv);
        cross_force(v[s], iv, pa[s]);
        if (fe)
            for (int i = 0; i < 6; ++i)
                pa[s][i] -= fe[LINK[s] * 6 + i];
        memcpy(IA[s], INER[s], sizeof IA[s]);
    }
    for (int s = NB - 1; s >= 0; --s) {
        const int p = PARENT[s], k = K[s];
        double d[36], sp[6];
        project(s, IA[s], U[s], d);
        inv_k(d, DI[s], k);
        sub_tmul(s, pa[s], sp);
        for (int j = 0; j < k; ++j)
            ut[s][j] = tau[Q0[s] + j] - sp[j];
        if (p < 0)
            continue;
        double ud[36], ia[36], du[6], pn[6], t[6];
        for (int i = 0; i < 6; ++i)
            for (int l = 0; l < k; ++l) {
                double x = 0.0;
                for (int j = 0; j < k; ++j)
                    x += U[s][i * 6 + j] * DI[s][j * 6 + l];
                ud[i * 6 + l] = x;
            }
        for (int i = 0; i < 6; ++i)
            for (int m = 0; m < 6; ++m) {
                double x = 0.0;
                for (int l = 0; l < k; ++l)
                    x += ud[i * 6 + l] * U[s][m * 6 + l];
                ia[i * 6 + m] = IA[s][i * 6 + m] - x;
            }
        for (int j = 0; j < k; ++j) {
            double x = 0.0;
            for (int l = 0; l < k; ++l)
                x += DI[s][j * 6 + l] * ut[s][l];
            du[j] = x;
        }
        mv6(ia, c[s], t);
        for (int i = 0; i < 6; ++i) {
            double x = 0.0;
            for (int j = 0; j < k; ++j)
                x += U[s][i * 6 + j] * du[j];
            pn[i] = pa[s][i] + t[i] + x;
        }
        add_congruence(X[s], ia, IA[p]);
        mtv6(X[s], pn, t);
        for (int i = 0; i < 6; ++i)
            pa[p][i] += t[i];
    }
    for (int s = 0; s < NB; ++s) {   /* v becomes the accelerations */
        const int p = PARENT[s], k = K[s];
        double ap[6], t[6], qs[6];
        mv6(X[s], p < 0 ? A0 : v[p], ap);
        for (int i = 0; i < 6; ++i)
            ap[i] += c[s][i];
        for (int j = 0; j < k; ++j) {
            double x = 0.0;
            for (int i = 0; i < 6; ++i)
                x += U[s][i * 6 + j] * ap[i];
            t[j] = ut[s][j] - x;
        }
        for (int j = 0; j < k; ++j) {
            double x = 0.0;
            for (int l = 0; l < k; ++l)
                x += DI[s][j * 6 + l] * t[l];
            qs[j] = x;
            qdd[Q0[s] + j] = x;
        }
        sub_mul(s, qs, t);
        for (int i = 0; i < 6; ++i)
            v[s][i] = ap[i] + t[i];
    }
}

/* MMinvGen (Algorithm 2) for one row over the staged X: M (minv = 0)
 * or Minv into out.  Column loops run innermost over contiguous memory. */
static void mminv_row(const double (*X)[36], double *out, int minv)
{
    double IA[NB][36], U[NB][36], DI[NB][36];
    double F[NB][6][NV];    /* force columns; the forward sweep's P */
    double T[6][NV];
    for (int s = 0; s < NB; ++s) {
        memcpy(IA[s], INER[s], sizeof IA[s]);
        for (int i = 0; i < 6; ++i)
            memset(&F[s][i][Q0[s]], 0, (HI[s] - Q0[s]) * sizeof(double));
    }
    for (int s = NB - 1; s >= 0; --s) {
        const int p = PARENT[s], k = K[s], r0 = Q0[s], c0 = r0 + k;
        const int hi = HI[s];
        double d[36];
        project(s, IA[s], U[s], d);
        if (minv)
            inv_k(d, DI[s], k);
        for (int j = 0; j < k; ++j) {    /* T[j] = (S^T F)[j] */
            for (int c = c0; c < hi; ++c)
                T[j][c] = 0.0;
            for (int i = 0; i < 6; ++i) {
                const double w = SUB[s][i * 6 + j];
                if (w != 0.0)
                    for (int c = c0; c < hi; ++c)
                        T[j][c] += w * F[s][i][c];
            }
        }
        for (int j = 0; j < k; ++j) {
            double *row = out + (r0 + j) * NV;
            for (int l = 0; l < k; ++l)
                row[r0 + l] = minv ? DI[s][j * 6 + l] : d[j * 6 + l];
            memset(row + hi, 0, (NV - hi) * sizeof(double));
            if (!minv) {
                for (int c = c0; c < hi; ++c)
                    row[c] = T[j][c];
                continue;
            }
            for (int c = c0; c < hi; ++c)
                row[c] = 0.0;
            for (int l = 0; l < k; ++l) {
                const double w = DI[s][j * 6 + l];
                for (int c = c0; c < hi; ++c)
                    row[c] -= w * T[l][c];
            }
        }
        if (p < 0)
            continue;
        if (minv) {
            for (int i = 0; i < 6; ++i)
                for (int j = 0; j < k; ++j) {
                    const double w = U[s][i * 6 + j];
                    const double *row = out + (r0 + j) * NV;
                    for (int c = r0; c < hi; ++c)
                        F[s][i][c] += w * row[c];
                }
            for (int i = 0; i < 6; ++i)
                for (int m = 0; m < 6; ++m) {
                    double x = 0.0;
                    for (int j = 0; j < k; ++j)
                        for (int l = 0; l < k; ++l)
                            x += U[s][i * 6 + j] * DI[s][j * 6 + l]
                                 * U[s][m * 6 + l];
                    IA[s][i * 6 + m] -= x;
                }
        } else {
            for (int i = 0; i < 6; ++i)
                for (int j = 0; j < k; ++j)
                    F[s][i][r0 + j] = U[s][i * 6 + j];
        }
        for (int i = 0; i < 6; ++i)     /* F[p] += X^T F[s] */
            for (int m = 0; m < 6; ++m) {
                const double w = X[s][m * 6 + i];
                if (w != 0.0)
                    for (int c = r0; c < hi; ++c)
                        F[p][i][c] += w * F[s][m][c];
            }
        add_congruence(X[s], IA[s], IA[p]);
    }
    if (minv)
        for (int s = 0; s < NB; ++s) {
            const int p = PARENT[s], k = K[s], r0 = Q0[s];
            if (p >= 0) {
                for (int i = 0; i < 6; ++i) {   /* T = X P[p] */
                    for (int c = r0; c < NV; ++c)
                        T[i][c] = 0.0;
                    for (int m = 0; m < 6; ++m) {
                        const double w = X[s][i * 6 + m];
                        if (w != 0.0)
                            for (int c = r0; c < NV; ++c)
                                T[i][c] += w * F[p][m][c];
                    }
                }
                for (int l = 0; l < k; ++l) {   /* out -= Dinv U^T T */
                    double wl[NV];
                    for (int c = r0; c < NV; ++c)
                        wl[c] = 0.0;
                    for (int i = 0; i < 6; ++i) {
                        const double w = U[s][i * 6 + l];
                        for (int c = r0; c < NV; ++c)
                            wl[c] += w * T[i][c];
                    }
                    for (int j = 0; j < k; ++j) {
                        const double w = DI[s][j * 6 + l];
                        double *row = out + (r0 + j) * NV;
                        for (int c = r0; c < NV; ++c)
                            row[c] -= w * wl[c];
                    }
                }
            }
            for (int i = 0; i < 6; ++i) {       /* P[s] = S out + T */
                double *ps = F[s][i];
                for (int c = r0; c < NV; ++c)
                    ps[c] = p >= 0 ? T[i][c] : 0.0;
                for (int j = 0; j < k; ++j) {
                    const double w = SUB[s][i * 6 + j];
                    const double *row = out + (r0 + j) * NV;
                    if (w != 0.0)
                        for (int c = r0; c < NV; ++c)
                            ps[c] += w * row[c];
                }
            }
        }
    for (int r = 0; r < NV; ++r)    /* mirror the upper triangle */
        for (int c = r + 1; c < NV; ++c)
            out[c * NV + r] = out[r * NV + c];
}

/* out[i][c] = sum_m A[i][m] in[m][c] (tr = 0) or sum_m A[m][i] in[m][c]
 * (tr = 1) over the columns [0, w) of 6-row blocks with stride NV; acc
 * = 0 assigns, 1 adds, -1 subtracts.  Zero weights are skipped. */
static void mcols(const double *A, int tr, double (*in)[NV],
                  double (*out)[NV], int w, int acc)
{
    for (int i = 0; i < 6; ++i) {
        double *o = out[i];
        if (!acc)
            memset(o, 0, w * sizeof(double));
        for (int m = 0; m < 6; ++m) {
            const double x = tr ? A[m * 6 + i] : A[i * 6 + m];
            const double g = acc < 0 ? -x : x;
            if (g != 0.0)
                for (int c = 0; c < w; ++c)
                    o[c] += g * in[m][c];
        }
    }
}

/* o = crm(a), the 6 x 6 operator of m -> a x m */
static void crm6(const double *a, double *o)
{
    for (int j = 0; j < 6; ++j) {
        double e[6] = {0}, t[6];
        e[j] = 1.0;
        cross_motion(a, e, t);
        for (int i = 0; i < 6; ++i)
            o[i * 6 + j] = t[i];
    }
}

/* g with g dv = dv x* (I v) + v x* (I dv), the gyroscopic part of the
 * body-force derivative of slot s */
static void gyro(int s, const double *v, double *g)
{
    double h[6];
    mv6(INER[s], v, h);
    for (int j = 0; j < 6; ++j) {
        double e[6] = {0}, ic[6], t[6], u[6];
        e[j] = 1.0;
        for (int i = 0; i < 6; ++i)
            ic[i] = INER[s][i * 6 + j];
        cross_force(e, h, t);
        cross_force(v, ic, u);
        for (int i = 0; i < 6; ++i)
            g[i * 6 + j] = t[i] + u[i];
    }
}

/* dRNEA (repro.dynamics.derivatives.rnea_derivatives) for one row at the
 * state rnea_row left: velocities v, accelerations a and subtree forces
 * f.  Writes dtau/dq and dtau/dqd (NV x NV, q order).  D[s] holds
 * [dv/dq, dv/dqd, da/dq, da/dqd] of slot s, nonzero only at its root
 * path's columns, [0, Q0 + K) in q order.  After the forward sweep the
 * da blocks become the body-force derivatives df, which the backward
 * sweep sums over the subtree columns, [0, HI). */
static void rnea_derivatives_row(const double (*X)[36], const double *qd,
                                 const double (*v)[6], const double (*a)[6],
                                 const double (*f)[6], double *dq,
                                 double *dqd)
{
    double D[NB][4][6][NV];
    for (int s = 0; s < NB; ++s) {
        const int p = PARENT[s], k = K[s], r0 = Q0[s], w = r0 + k;
        const int wp = p < 0 ? 0 : Q0[p] + K[p];
        double (*d)[6][NV] = D[s];
        double vj[6], xv[6], xa[6], cv[36], sj[6], t[6];
        sub_mul(s, qd + r0, vj);
        mv6(X[s], p < 0 ? A0 : a[p], xa);
        if (p >= 0)
            mv6(X[s], v[p], xv);
        for (int b = 0; b < 4; ++b) {
            if (p >= 0)
                mcols(X[s], 0, D[p][b], d[b], wp, 0);
            for (int i = 0; i < 6; ++i)
                memset(&d[b][i][wp], 0, (w - wp) * sizeof(double));
        }
        for (int j = 0; j < k; ++j) {   /* the joint's own columns */
            for (int i = 0; i < 6; ++i)
                sj[i] = SUB[s][i * 6 + j];
            if (p >= 0) {
                cross_motion(xv, sj, t);
                for (int i = 0; i < 6; ++i)
                    d[0][i][r0 + j] += t[i];
            }
            cross_motion(xa, sj, t);
            for (int i = 0; i < 6; ++i) {
                d[1][i][r0 + j] += sj[i];
                d[2][i][r0 + j] += t[i];
            }
        }
        crm6(vj, cv);       /* a holds v x vj: differentiate both factors */
        mcols(cv, 0, d[0], d[2], w, -1);
        mcols(cv, 0, d[1], d[3], w, -1);
        for (int j = 0; j < k; ++j) {
            for (int i = 0; i < 6; ++i)
                sj[i] = SUB[s][i * 6 + j];
            cross_motion(v[s], sj, t);
            for (int i = 0; i < 6; ++i)
                d[3][i][r0 + j] += t[i];
        }
    }
    for (int s = 0; s < NB; ++s) {      /* df = I da + gyro dv */
        const int w = Q0[s] + K[s], hi = HI[s];
        double g[36], T[6][NV];
        gyro(s, v[s], g);
        for (int b = 0; b < 2; ++b) {
            mcols(INER[s], 0, D[s][2 + b], T, w, 0);
            mcols(g, 0, D[s][b], T, w, 1);
            for (int i = 0; i < 6; ++i) {
                memcpy(D[s][2 + b][i], T[i], w * sizeof(double));
                memset(&D[s][2 + b][i][w], 0, (hi - w) * sizeof(double));
            }
        }
    }
    for (int s = NB - 1; s >= 0; --s) {
        const int p = PARENT[s], k = K[s], r0 = Q0[s], hi = HI[s];
        double (*df)[6][NV] = D[s] + 2;
        for (int j = 0; j < k; ++j) {   /* dtau rows: S^T df */
            double *rq = dq + (r0 + j) * NV, *rqd = dqd + (r0 + j) * NV;
            memset(rq, 0, NV * sizeof(double));
            memset(rqd, 0, NV * sizeof(double));
            for (int i = 0; i < 6; ++i) {
                const double w = SUB[s][i * 6 + j];
                if (w != 0.0)
                    for (int c = 0; c < hi; ++c) {
                        rq[c] += w * df[0][i][c];
                        rqd[c] += w * df[1][i][c];
                    }
            }
        }
        if (p < 0)
            continue;
        for (int j = 0; j < k; ++j) {   /* btr: S_j x* f in its own column */
            double sj[6], t[6];
            for (int i = 0; i < 6; ++i)
                sj[i] = SUB[s][i * 6 + j];
            cross_force(sj, f[s], t);
            for (int i = 0; i < 6; ++i)
                df[0][i][r0 + j] += t[i];
        }
        mcols(X[s], 1, df[0], D[p][2], hi, 1);
        mcols(X[s], 1, df[1], D[p][3], hi, 1);
    }
}

/* out = -minv b for NV x NV blocks */
static void neg_minv_mul(const double *minv, const double *b, double *out)
{
    for (int r = 0; r < NV; ++r) {
        double *o = out + r * NV;
        memset(o, 0, NV * sizeof(double));
        for (int m = 0; m < NV; ++m) {
            const double w = minv[r * NV + m];
            for (int c = 0; c < NV; ++c)
                o[c] -= w * b[m * NV + c];
        }
    }
}

/* dFD (Eq. 3) for one row: one staging feeds the bias RNEA, MMinvGen,
 * qdd = Minv (tau - C), the RNEA at qdd (same velocities) and dRNEA;
 * then dqdd/du = -Minv dtau/du */
static void dfd_row(const double *q, const double *qd, const double *tau,
                    const double *fe, double *qdd, double *dq, double *dqd,
                    double *minv)
{
    double X[NB][36], v[NB][6], a[NB][6], f[NB][6];
    double c[NV], zero[NV] = {0}, dtq[NV * NV], dtqd[NV * NV];
    stage(q, X);
    velocities(X, qd, v);
    rnea_row(X, v, qd, zero, fe, a, f, c);
    mminv_row(X, minv, 1);
    for (int r = 0; r < NV; ++r) {
        double x = 0.0;
        for (int m = 0; m < NV; ++m)
            x += minv[r * NV + m] * (tau[m] - c[m]);
        qdd[r] = x;
    }
    rnea_row(X, v, qd, qdd, fe, a, f, c);
    rnea_derivatives_row(X, qd, v, a, f, dtq, dtqd);
    neg_minv_mul(minv, dtq, dq);
    neg_minv_mul(minv, dtqd, dqd);
}

/* diFD for one row: qdd known, Minv too unless computed here (given = 0) */
static void difd_row(const double *q, const double *qd, const double *qdd,
                     const double *fe, double *minv, int given, double *dq,
                     double *dqd)
{
    double X[NB][36], v[NB][6], a[NB][6], f[NB][6];
    double c[NV], dtq[NV * NV], dtqd[NV * NV];
    stage(q, X);
    if (!given)
        mminv_row(X, minv, 1);
    velocities(X, qd, v);
    rnea_row(X, v, qd, qdd, fe, a, f, c);
    rnea_derivatives_row(X, qd, v, a, f, dtq, dtqd);
    neg_minv_mul(minv, dtq, dq);
    neg_minv_mul(minv, dtqd, dqd);
}

/* dID for one row */
static void did_row(const double *q, const double *qd, const double *qdd,
                    const double *fe, double *dq, double *dqd)
{
    double X[NB][36], v[NB][6], a[NB][6], f[NB][6], c[NV];
    stage(q, X);
    velocities(X, qd, v);
    rnea_row(X, v, qd, qdd, fe, a, f, c);
    rnea_derivatives_row(X, qd, v, a, f, dq, dqd);
}

static void id_row(const double *q, const double *qd, const double *qdd,
                   const double *fe, double *tau)
{
    double X[NB][36], v[NB][6], a[NB][6], f[NB][6];
    stage(q, X);
    velocities(X, qd, v);
    rnea_row(X, v, qd, qdd, fe, a, f, tau);
}

static void fd_row(const double *q, const double *qd, const double *tau,
                   const double *fe, double *qdd)
{
    double X[NB][36];
    stage(q, X);
    aba_row(X, qd, tau, fe, qdd);
}

static void mass_row(const double *q, double *out, int minv)
{
    double X[NB][36];
    stage(q, X);
    mminv_row(X, out, minv);
}

#define FE(i) (fext ? fext + (i) * NB * 6 : 0)

void repro_id(long n, const double *q, const double *qd, const double *qdd,
              const double *fext, double *tau)
{
    for (long i = 0; i < n; ++i)
        id_row(q + i * NV, qd + i * NV, qdd + i * NV, FE(i), tau + i * NV);
}

void repro_m(long n, const double *q, double *out)
{
    for (long i = 0; i < n; ++i)
        mass_row(q + i * NV, out + i * NV * NV, 0);
}

void repro_minv(long n, const double *q, double *out)
{
    for (long i = 0; i < n; ++i)
        mass_row(q + i * NV, out + i * NV * NV, 1);
}

void repro_fd(long n, const double *q, const double *qd, const double *tau,
              const double *fext, double *qdd)
{
    for (long i = 0; i < n; ++i)
        fd_row(q + i * NV, qd + i * NV, tau + i * NV, FE(i), qdd + i * NV);
}

void repro_did(long n, const double *q, const double *qd, const double *qdd,
               const double *fext, double *dq, double *dqd)
{
    for (long i = 0; i < n; ++i)
        did_row(q + i * NV, qd + i * NV, qdd + i * NV, FE(i),
                dq + i * NV * NV, dqd + i * NV * NV);
}

void repro_dfd(long n, const double *q, const double *qd, const double *tau,
               const double *fext, double *qdd, double *dq, double *dqd,
               double *minv)
{
    for (long i = 0; i < n; ++i)
        dfd_row(q + i * NV, qd + i * NV, tau + i * NV, FE(i), qdd + i * NV,
                dq + i * NV * NV, dqd + i * NV * NV, minv + i * NV * NV);
}

/* minv: the given Minv stack (given = 1) or where to write it */
void repro_difd(long n, const double *q, const double *qd,
                const double *qdd, const double *fext, double *minv,
                int given, double *dq, double *dqd)
{
    for (long i = 0; i < n; ++i)
        difd_row(q + i * NV, qd + i * NV, qdd + i * NV, FE(i),
                 minv + i * NV * NV, given, dq + i * NV * NV,
                 dqd + i * NV * NV);
}
"""


_KERNELS_HASH = hashlib.sha256(_KERNELS.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Build and load
# ---------------------------------------------------------------------------


def cache_key(plan: ExecutionPlan, compiler: str) -> str:
    """Library key: structure hash, generator version and kernel text,
    compiler identity and flags."""
    h = hashlib.sha256(
        f"{GENERATOR_VERSION}|{_KERNELS_HASH}|{plan.structure_hash()}|"
        f"{compiler_identity(compiler)}|{' '.join(COMPILE_FLAGS)}".encode())
    return h.hexdigest()[:24]


def _file_stem(plan: ExecutionPlan, key: str) -> str:
    robot = re.sub(r"[^A-Za-z0-9_]", "_", plan.robot_name)[:32]
    return f"{robot}-{key}"


def build(plan: ExecutionPlan, key: str, compiler: str,
          directory: Path) -> Path:
    """Write and compile ``plan``'s source into ``directory``; the path
    of the library.  Both files are written under temporary names and
    renamed into place, so a reader never sees a partial file."""
    stem = _file_stem(plan, key)
    tag = f"{os.getpid()}-{threading.get_ident()}"
    tmp_c = directory / f".{stem}.{tag}.tmp.c"
    tmp_so = directory / f".{stem}.{tag}.tmp.so"
    try:
        tmp_c.write_text(generate_source(plan, key))
        try:
            proc = subprocess.run(
                [compiler, *COMPILE_FLAGS, "-o", str(tmp_so), str(tmp_c),
                 "-lm"],
                capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise NativeUnavailable(
                f"compile timed out after {COMPILE_TIMEOUT_S:g} s") from None
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            raise NativeUnavailable(
                f"compile failed (exit {proc.returncode}): "
                + (detail[-1] if detail else "no output"))
        # Whatever the umask, only this user may write the library, as
        # loading requires.
        os.chmod(tmp_so, 0o700)
        os.replace(tmp_c, directory / f"{stem}.c")
        so = directory / f"{stem}.so"
        os.replace(tmp_so, so)
        return so
    finally:
        for tmp in (tmp_c, tmp_so):
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass


_P = ctypes.c_void_p
_BYTE = ctypes.c_char


def _addr(a: np.ndarray) -> int:
    """Address of ``a``'s data (cheaper than ``a.ctypes.data`` when the
    buffer is writable, the common case)."""
    try:
        return ctypes.addressof(_BYTE.from_buffer(a))
    except (TypeError, ValueError):     # read-only or empty
        return a.ctypes.data


#: Kernel spans keep the algorithm's name (as the plan sweeps book
#: them) and say which implementation ran.
_NATIVE = {"impl": "native"}


class NativeKernels:
    """One loaded library: ID, M, Minv and FD, and the derivatives dID,
    dFD and diFD, over ``n`` task rows."""

    def __init__(self, path: Path, plan: ExecutionPlan, key: str) -> None:
        lib = ctypes.CDLL(str(path))
        stamp = ctypes.c_char * (len(key) + 1)
        if stamp.in_dll(lib, "repro_native_key").value != key.encode():
            raise OSError(f"{path} was built for another key")
        self.robot = plan.robot_name
        self.nb, self.nv = plan.nb, plan.nv
        self._lib = lib
        self._id = lib.repro_id
        self._id.argtypes = (ctypes.c_long, _P, _P, _P, _P, _P)
        self._m = lib.repro_m
        self._minv = lib.repro_minv
        for fn in (self._m, self._minv):
            fn.argtypes = (ctypes.c_long, _P, _P)
        self._fd = lib.repro_fd
        self._fd.argtypes = (ctypes.c_long, _P, _P, _P, _P, _P)
        self._did = lib.repro_did
        self._did.argtypes = (ctypes.c_long, _P, _P, _P, _P, _P, _P)
        self._dfd = lib.repro_dfd
        self._dfd.argtypes = (ctypes.c_long, _P, _P, _P, _P, _P, _P, _P, _P)
        self._difd = lib.repro_difd
        self._difd.argtypes = (ctypes.c_long, _P, _P, _P, _P, _P,
                               ctypes.c_int, _P, _P)
        for fn in (self._id, self._m, self._minv, self._fd, self._did,
                   self._dfd, self._difd):
            fn.restype = None

    def _rows(self, name: str, a, n: int | None = None) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2 or a.shape[1] != self.nv or (
                n is not None and a.shape[0] != n):
            raise ValueError(
                f"{name} must have shape ({'n' if n is None else n}, "
                f"{self.nv}), got {a.shape}")
        return a

    def _f_ext(self, f_ext, n: int):
        """Dense ``(n, nb, 6)`` stack by link index (None without forces)."""
        if not f_ext:
            return None, None
        fe = np.zeros((n, self.nb, 6))
        for link, stack in f_ext.items():
            fe[:, link] += stack
        return fe, _addr(fe)

    def _square(self, n: int) -> np.ndarray:
        return np.empty((n, self.nv, self.nv))

    def id(self, q, qd, qdd, f_ext=None) -> np.ndarray:
        q = self._rows("q", q)
        n = q.shape[0]
        qd, qdd = self._rows("qd", qd, n), self._rows("qdd", qdd, n)
        fe, fe_ptr = self._f_ext(f_ext, n)
        out = np.empty((n, self.nv))
        t0 = _obs.kernel_begin()
        self._id(n, _addr(q), _addr(qd), _addr(qdd), fe_ptr, _addr(out))
        _obs.kernel_end(t0, self.robot, "rnea", n, _NATIVE)
        return out

    def fd(self, q, qd, tau, f_ext=None) -> np.ndarray:
        q = self._rows("q", q)
        n = q.shape[0]
        qd, tau = self._rows("qd", qd, n), self._rows("tau", tau, n)
        fe, fe_ptr = self._f_ext(f_ext, n)
        out = np.empty((n, self.nv))
        t0 = _obs.kernel_begin()
        self._fd(n, _addr(q), _addr(qd), _addr(tau), fe_ptr, _addr(out))
        _obs.kernel_end(t0, self.robot, "aba", n, _NATIVE)
        return out

    def mass(self, q, inverse: bool) -> np.ndarray:
        q = self._rows("q", q)
        n = q.shape[0]
        out = self._square(n)
        t0 = _obs.kernel_begin()
        (self._minv if inverse else self._m)(n, _addr(q), _addr(out))
        _obs.kernel_end(t0, self.robot, "mminvgen", n, _NATIVE)
        return out

    def did(self, q, qd, qdd, f_ext=None):
        """``(dtau_dq, dtau_dqd)``."""
        q = self._rows("q", q)
        n = q.shape[0]
        qd, qdd = self._rows("qd", qd, n), self._rows("qdd", qdd, n)
        fe, fe_ptr = self._f_ext(f_ext, n)
        dq, dqd = self._square(n), self._square(n)
        t0 = _obs.kernel_begin()
        self._did(n, _addr(q), _addr(qd), _addr(qdd), fe_ptr, _addr(dq),
                  _addr(dqd))
        _obs.kernel_end(t0, self.robot, "rnea_derivatives", n, _NATIVE)
        return dq, dqd

    def dfd(self, q, qd, tau, f_ext=None):
        """``(qdd, dqdd_dq, dqdd_dqd, minv)``."""
        q = self._rows("q", q)
        n = q.shape[0]
        qd, tau = self._rows("qd", qd, n), self._rows("tau", tau, n)
        fe, fe_ptr = self._f_ext(f_ext, n)
        qdd = np.empty((n, self.nv))
        dq, dqd, minv = self._square(n), self._square(n), self._square(n)
        t0 = _obs.kernel_begin()
        self._dfd(n, _addr(q), _addr(qd), _addr(tau), fe_ptr, _addr(qdd),
                  _addr(dq), _addr(dqd), _addr(minv))
        _obs.kernel_end(t0, self.robot, "rnea_derivatives", n, _NATIVE)
        return qdd, dq, dqd, minv

    def difd(self, q, qd, qdd, minv=None, f_ext=None):
        """``(qdd, dqdd_dq, dqdd_dqd, minv)``; ``minv`` is computed
        unless given."""
        q = self._rows("q", q)
        n = q.shape[0]
        qd, qdd = self._rows("qd", qd, n), self._rows("qdd", qdd, n)
        fe, fe_ptr = self._f_ext(f_ext, n)
        given = minv is not None
        if given:
            minv = np.ascontiguousarray(minv, dtype=np.float64)
            if minv.shape != (n, self.nv, self.nv):
                raise ValueError(
                    f"minv must have shape ({n}, {self.nv}, {self.nv}), "
                    f"got {minv.shape}")
        else:
            minv = self._square(n)
        dq, dqd = self._square(n), self._square(n)
        t0 = _obs.kernel_begin()
        self._difd(n, _addr(q), _addr(qd), _addr(qdd), fe_ptr, _addr(minv),
                   given, _addr(dq), _addr(dqd))
        _obs.kernel_end(t0, self.robot, "rnea_derivatives", n, _NATIVE)
        return qdd, dq, dqd, minv


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class NativeEngine(CompiledEngine):
    """Generated C for all seven functions; the numpy plans for contact
    :meth:`~repro.dynamics.plan.ExecutionPlan.stage`.

    Libraries are resolved once per robot model -- on
    :meth:`prepare` (the service calls it for ``warm_robots``) or on
    the first call -- from this engine's loaded set, else the on-disk
    cache, else a fresh build.  A per-key lock makes two threads that
    first-call one robot build it once.  Robots without a library run
    the inherited :class:`CompiledEngine` methods; :attr:`fallbacks`
    names why.  Host-only: plans run on numpy.
    """

    name = "native"

    def __init__(self) -> None:
        super().__init__(backend="numpy")
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        #: cache key -> loaded library (models sharing a structure share it)
        self._libs: dict[str, NativeKernels] = {}
        self._by_model: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())
        #: robot name -> why it runs the numpy plans
        self.fallbacks: dict[str, str] = {}
        #: libraries this engine compiled (cache hits do not count)
        self.builds = 0

    def prepare(self, model) -> None:
        self.kernels(model)

    def status(self, model) -> str:
        """``"C"``, or ``"compiled (<reason>)"`` for a fallback robot."""
        if self.kernels(model) is not None:
            return "C"
        return f"compiled ({self.fallbacks.get(model.name, 'unknown')})"

    def kernels(self, model) -> NativeKernels | None:
        """``model``'s loaded library, or None when it falls back."""
        try:
            return self._by_model[model]
        except KeyError:
            pass
        try:
            kernels = self._resolve(self._plan(model))
        except NativeUnavailable as exc:
            kernels = None
            with self._lock:
                self.fallbacks.setdefault(model.name, str(exc))
        with self._lock:
            self._by_model[model] = kernels
        return kernels

    def _resolve(self, plan: ExecutionPlan) -> NativeKernels:
        slot_kinds(plan)
        scratch = _stack_bytes(plan.nb, plan.nv)
        if scratch > MAX_STACK_BYTES:
            raise NativeUnavailable(
                f"scratch of {scratch} bytes exceeds the "
                f"{MAX_STACK_BYTES}-byte stack budget")
        compiler = find_compiler()
        if compiler is None:
            raise NativeUnavailable("no C compiler ('cc') on PATH")
        key = cache_key(plan, compiler)
        with self._lock:
            lock = self._key_locks.setdefault(key, threading.Lock())
        with lock:
            kernels = self._libs.get(key)
            if kernels is None:
                kernels = self._load_or_build(plan, key, compiler)
                self._libs[key] = kernels
        return kernels

    def _load_or_build(self, plan, key, compiler) -> NativeKernels:
        directory = library_dir()
        path = directory / f"{_file_stem(plan, key)}.so"
        try:
            if _private(path, stat.S_IFREG):
                return NativeKernels(path, plan, key)
        except OSError:
            pass        # missing, damaged or stale: (re)build it
        try:
            path = build(plan, key, compiler, directory)
        except OSError as exc:
            raise NativeUnavailable(f"build failed: {exc}") from None
        with self._lock:
            self.builds += 1
        try:
            return NativeKernels(path, plan, key)
        except OSError as exc:
            raise NativeUnavailable(f"load failed: {exc}") from None

    def id_batch(self, model, q, qd, qdd, f_ext=None):
        k = self.kernels(model)
        if k is None:
            return super().id_batch(model, q, qd, qdd, f_ext)
        return k.id(q, qd, qdd, f_ext)

    def m_batch(self, model, q):
        k = self.kernels(model)
        if k is None:
            return super().m_batch(model, q)
        return k.mass(q, inverse=False)

    def minv_batch(self, model, q):
        k = self.kernels(model)
        if k is None:
            return super().minv_batch(model, q)
        return k.mass(q, inverse=True)

    def fd_batch(self, model, q, qd, tau, f_ext=None):
        k = self.kernels(model)
        if k is None:
            return super().fd_batch(model, q, qd, tau, f_ext)
        return k.fd(q, qd, tau, f_ext)

    def did_batch(self, model, q, qd, qdd, f_ext=None):
        k = self.kernels(model)
        if k is None:
            return super().did_batch(model, q, qd, qdd, f_ext)
        return k.did(q, qd, qdd, f_ext)

    def dfd_batch(self, model, q, qd, tau, f_ext=None):
        k = self.kernels(model)
        if k is None:
            return super().dfd_batch(model, q, qd, tau, f_ext)
        return k.dfd(q, qd, tau, f_ext)

    def difd_batch(self, model, q, qd, qdd, minv=None, f_ext=None):
        k = self.kernels(model)
        if k is None:
            return super().difd_batch(model, q, qd, qdd, minv, f_ext)
        return k.difd(q, qd, qdd, minv, f_ext)


__all__ = [
    "NativeEngine",
    "NativeKernels",
    "NativeUnavailable",
    "cache_dir",
    "find_compiler",
    "generate_source",
    "library_dir",
]
