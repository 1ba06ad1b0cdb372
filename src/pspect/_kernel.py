"""Build and load the compiled step loop of the radial problems.

``_rk45_kernel.c`` holds ``pspect_dp45``: the Dormand-Prince loop of
``_rk45.integrate`` with the right-hand side of a linear, nonlinear
(built-in ``Nonlinearity`` families) or perturbed (built-in
``Perturbation``) shot written into it, operation for operation, so it
returns the bits of the Python stepper.  :class:`Rhs` describes that
right-hand side; ``radial_ivp``'s RHS classes build it.

The source is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed flags ``FLAGS``, into
``__pycache__`` next to this file, under a name keyed by a hash of the
source, the compiler and the flags; later processes load that file.  The
flags are part of the bit-identity: ``-ffp-contract=off`` forbids fused
multiply-adds and ``-fno-builtin`` keeps ``pow(x, 2.0)`` a libm call, as
CPython's ``**`` makes it; ``-ffast-math`` and ``-march=native`` stay
out.  Where no compiler runs or the cache cannot be written, :func:`load`
returns None and every shot takes the Python stepper.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import sysconfig
from typing import NamedTuple

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk45_kernel.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
FIRST_CAPACITY = 4096  # accepted steps the buffers of a shot hold at first

# status codes of pspect_dp45
END, BLOWUP, UNDERFLOW, FULL, RERUN = range(5)

# right-hand side families of pspect_dp45 (Rhs.family)
LINEAR, PHI, RATIONAL, PERTURBED = range(4)


class Rhs(NamedTuple):
    """The right-hand side of one shot in the kernel's terms.

    W = lam m(r) F(u) on the system of exponent p and dimension n_dim,
    with F by family: LINEAR and PERTURBED _sgnpow(u, e), PHI and
    RATIONAL the ``Nonlinearity`` form of that name with its exponent e
    (and f0, finf, q); PERTURBED adds gc m(r) sgn(u) |u|^ge.
    """

    p: float
    n_dim: int
    weight: object
    lam: float
    family: int
    e: float
    f0: float = 0.0
    finf: float = 0.0
    q: float = 0.0
    gc: float = 0.0
    ge: float = 0.0


class _Rhs(ctypes.Structure):  # struct Rhs of _rk45_kernel.c
    _fields_ = (
        [(name, ctypes.c_int64) for name in ("family", "n_dim", "n_pieces")]
        + [(name, ctypes.c_void_p) for name in ("bp", "off", "c")]
        + [(name, ctypes.c_double)
           for name in ("lam", "e", "e_inv", "f0", "finf", "q", "gc", "ge")]
        + [("bad", ctypes.c_int)]
    )


# pspect_dp45(rhs, state, t_end, h_min, rtol, atol_u, atol_v, has_limit,
#             blowup_limit, cap, ts, y0s, hs, coef, steps)
_ARGTYPES = (
    [ctypes.POINTER(_Rhs), ctypes.c_void_p] + [ctypes.c_double] * 5
    + [ctypes.c_int, ctypes.c_double, ctypes.c_int64] + [ctypes.c_void_p] * 5
)


def _build() -> str:
    """Path of the compiled library, compiling it if no cached copy exists."""
    import subprocess
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise OSError("Python reports no C compiler")
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + repr((cc, FLAGS)).encode()).hexdigest()[:16]
    path = os.path.join(CACHE_DIR, f"_rk45_kernel-{key}.so")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=CACHE_DIR)
    os.close(fd)
    try:
        subprocess.run([*cc, *FLAGS, "-o", tmp, SOURCE, "-lm"], check=True,
                       capture_output=True, timeout=300)
        os.replace(tmp, path)  # atomic: a concurrent build writes the same file
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {SOURCE} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def load():
    """The kernel's entry point, or None where it cannot be built or loaded."""
    try:
        fn = ctypes.CDLL(_build()).pspect_dp45
    except OSError:
        return None
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int
    return fn


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def run(rhs: Rhs, t, u, v, fu, fv, h, t_end, h_min, rtol, atol_u, atol_v, blowup_limit):
    """The step loop of one shot with right-hand side ``rhs`` on the kernel.

    The other arguments are the state of ``_rk45.integrate`` after its
    initial step.  Returns None when the kernel is missing or a Python
    float operation would have raised on the way (the caller then repeats
    the shot on the Python stepper), else (status, t, ts, y0s, hs, coef,
    accepted, rejected) with the final t, the n + 1 nodes ts and the flat
    dense buffers of the n accepted steps.
    """
    fn = load()
    if fn is None:
        return None
    bp, off, wc = rhs.weight.flat
    spec = _Rhs(rhs.family, rhs.n_dim, len(rhs.weight.coeffs),
                _address(bp), _address(off), _address(wc),
                rhs.lam, rhs.e, 1.0 / (rhs.p - 1.0), rhs.f0, rhs.finf, rhs.q,
                rhs.gc, rhs.ge, 0)
    state = (ctypes.c_double * 6)(t, u, v, fu, fv, h)
    steps = (ctypes.c_int64 * 2)()
    cap = FIRST_CAPACITY
    while True:
        # ts (cap + 1 nodes), y0s (2 cap), hs (cap) and coef (8 cap) in one block
        buf = np.empty(12 * cap + 1)
        at = _address(buf)
        status = fn(spec, state, t_end, h_min, rtol, atol_u, atol_v,
                    blowup_limit is not None, 0.0 if blowup_limit is None else blowup_limit,
                    cap, at, at + 8 * (cap + 1), at + 8 * (3 * cap + 1),
                    at + 8 * (4 * cap + 1), steps)
        if status != FULL:
            break
        state[:] = (t, u, v, fu, fv, h)
        cap *= 2
    if status == RERUN:
        return None
    n = steps[0]
    return (status, state[0], buf[:n + 1].copy(), buf[cap + 1:cap + 1 + 2 * n].copy(),
            buf[3 * cap + 1:3 * cap + 1 + n].copy(), buf[4 * cap + 1:4 * cap + 1 + 8 * n].copy(),
            n, steps[1])
