"""Build and load the compiled step loop and post-pass of the radial problems.

``_rk45_kernel.c`` holds two entry points.  ``pspect_dp45`` is the
Dormand-Prince loop of ``_rk45.integrate`` with the right-hand side of a
linear, nonlinear (built-in ``Nonlinearity`` families) or perturbed
(built-in ``Perturbation``) shot written into it, operation for
operation, so it returns the bits of the Python stepper.  :class:`Rhs`
describes that right-hand side; ``radial_ivp``'s RHS classes build it.
``pspect_scan`` reads a finished shot off its dense output, whichever
loop ran it, as ``radial_ivp._scan_reference`` does in numpy and to the
same bits: the sample grid and u, v on it, the running maxima of |u|,
u(1) and the sign changes of u (:func:`scan`).

The source is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed flags ``FLAGS``, into
``__pycache__`` next to this file, under a name keyed by a hash of the
source, the compiler and the flags; later processes load that file.  The
flags are part of the bit-identity: ``-ffp-contract=off`` forbids fused
multiply-adds and ``-fno-builtin`` keeps ``pow(x, 2.0)`` a libm call, as
CPython's ``**`` makes it; ``-ffast-math`` and ``-march=native`` stay
out.  The post-pass takes no power at all: numpy's array power need not
round as libm's ``pow`` does.  Where no compiler runs or the cache cannot
be written, :func:`load` returns None, every shot takes the Python
stepper and ``shoot`` the numpy post-pass.
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
#             blowup_limit, cap, buf, steps)
_DP45_ARGTYPES = (
    [ctypes.POINTER(_Rhs), ctypes.POINTER(ctypes.c_double)] + [ctypes.c_double] * 5
    + [ctypes.c_int, ctypes.c_double, ctypes.c_int64, ctypes.POINTER(ctypes.c_double),
       ctypes.POINTER(ctypes.c_int64)]
)
# pspect_scan(block, n, eps, r_end, n_samples, samples, cap, scratch, counts)
_SCAN_ARGTYPES = (
    ctypes.POINTER(ctypes.c_double), ctypes.c_int64, ctypes.c_double, ctypes.c_double,
    ctypes.c_int64, ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
    ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64),
)
RECORD = 17  # doubles per sign-change bracket of pspect_scan
_State = ctypes.c_double * 6  # t, u, v, fu, fv, h
_Pair = ctypes.c_int64 * 2  # step counts of pspect_dp45, counts of pspect_scan


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
    """The kernel library with ``pspect_dp45`` and ``pspect_scan`` ready to
    call, or None where it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError:
        return None
    lib.pspect_dp45.argtypes = _DP45_ARGTYPES
    lib.pspect_dp45.restype = ctypes.c_int
    lib.pspect_scan.argtypes = _SCAN_ARGTYPES
    lib.pspect_scan.restype = None
    return lib


_doubles = ctypes.c_double.from_buffer  # a writable float64 array as a double *


def run(rhs: Rhs, t, u, v, fu, fv, h, t_end, h_min, rtol, atol_u, atol_v, blowup_limit):
    """The step loop of one shot with right-hand side ``rhs`` on the kernel.

    The other arguments are the state of ``_rk45.integrate`` after its
    initial step.  Returns None when the kernel is missing or a Python
    float operation would have raised on the way (the caller then repeats
    the shot on the Python stepper), else (status, t, block, n, rejected)
    with the final t and the n accepted steps in the block layout of
    ``_rk45.DenseOutput``.
    """
    lib = load()
    if lib is None:
        return None
    bp, off, wc = rhs.weight.flat_addresses
    spec = _Rhs(rhs.family, rhs.n_dim, len(rhs.weight.coeffs), bp, off, wc,
                rhs.lam, rhs.e, 1.0 / (rhs.p - 1.0), rhs.f0, rhs.finf, rhs.q,
                rhs.gc, rhs.ge, 0)
    state = _State(t, u, v, fu, fv, h)
    steps = _Pair()
    has_limit = blowup_limit is not None
    limit = blowup_limit if has_limit else 0.0
    cap = FIRST_CAPACITY
    while True:
        buf = np.empty(12 * cap + 1)
        status = lib.pspect_dp45(spec, state, t_end, h_min, rtol, atol_u, atol_v, has_limit,
                                 limit, cap, _doubles(buf), steps)
        if status != FULL:
            break
        state[:] = (t, u, v, fu, fv, h)
        cap *= 2
    if status == RERUN:
        return None
    n = steps[0]
    return status, state[0], buf[:12 * n + 1].copy(), n, steps[1]


def scan(block, n, eps, r_end, n_samples):
    """``pspect_scan`` over a shot of n steps in the block layout of
    ``_rk45.DenseOutput``: what ``radial_ivp._scan_reference`` returns, to
    the same bits, or None when the kernel is missing, n < 1 or
    n_samples < 2."""
    lib = load()
    if lib is None or n < 1 or n_samples < 2:
        return None
    if block.dtype != np.float64 or block.shape != (12 * n + 1,):
        raise ValueError(f"a dense block of {n} steps holds {12 * n + 1} float64 values, "
                         f"got {block.dtype} {block.shape}")
    cap = n_samples + n + 1
    samples = np.empty(3 * cap)
    scratch = np.empty(cap + 2 + RECORD * 2 * n)
    counts = _Pair()
    lib.pspect_scan(_doubles(block), n, eps, r_end, n_samples, _doubles(samples), cap,
                    _doubles(scratch), counts)
    g, k = counts
    records = scratch[cap + 2:cap + 2 + RECORD * k].reshape(k, RECORD).tolist()
    return (samples[:g], samples[cap:cap + g], samples[2 * cap:2 * cap + g], scratch[:g],
            tuple(scratch[cap:cap + 2].tolist()), records)
