"""Build and load the compiled step loop and post-pass of the radial problems.

``_rk45_kernel.c`` holds five entry points.  ``pspect_dp45`` is the
Dormand-Prince loop of ``_rk45.integrate`` with the right-hand side of a
linear, nonlinear (built-in ``Nonlinearity`` families) or perturbed
(built-in ``Perturbation``) shot written into it, operation for
operation, so it returns the bits of the Python stepper (:func:`run`).
:class:`Rhs` describes that right-hand side; ``radial_ivp``'s RHS
classes build it.  ``pspect_scan`` reads a finished shot off its dense
output, whichever loop ran it, as ``radial_ivp._scan_reference`` does in
numpy and ``radial_ivp._locate_zeros`` in Python, and to the same bits:
the sample grid and u, v on it, the running maxima of |u|, u(1) and the
zeros of u with u' there, each refined by a port of
``radial_ivp.brentq`` (:func:`scan`).

``pspect_reduce`` reduces a finished shot to what ``radial_ivp.probe``
reports (:func:`reduce`), and ``pspect_probe`` runs ``pspect_dp45`` and
then ``pspect_reduce`` in one call (:func:`probe`), so a probe builds no
trajectory.  Each hands a shot back where Python would raise: the march
with PSPECT_RERUN as above, a zero whose refinement would raise, and,
with no blow-up guard, a shot that is not finite.  Where the trailing
zeros under the noise floor of the tail filter hold an interior zero,
the count Z depends on sup |u'|, a numpy power; the kernel then leaves
the filter to Python with the samples it needs.  ``pspect_apply_f``
computes F of the PHI and RATIONAL families on an array, for the
fixed-point residual (:func:`apply_f`).  No buffer outlives a call, as
ctypes releases the GIL during one.

The source is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed flags ``FLAGS``, into
``__pycache__`` next to this file, under a name keyed by a hash of the
source, the compiler and the flags; later processes load that file.  The
flags are part of the bit-identity: ``-ffp-contract=off`` forbids fused
multiply-adds and ``-fno-builtin`` keeps ``pow(x, 2.0)`` a libm call, as
CPython's ``**`` makes it; ``-ffast-math`` and ``-march=native`` stay
out.  The post-pass takes no numpy power: numpy's array power need not
round as libm's ``pow`` does.  Where no compiler runs or the cache cannot
be written, :func:`load` returns None, every shot takes the Python
stepper, ``shoot`` the numpy post-pass and Python zero refinement, and
``probe`` the reduction of the whole shot.
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

# status codes of pspect_dp45 and pspect_probe; TAIL of pspect_reduce
END, BLOWUP, UNDERFLOW, FULL, RERUN, TAIL = range(6)

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
_DOUBLES = ctypes.POINTER(ctypes.c_double)
_INT64S = ctypes.POINTER(ctypes.c_int64)
# pspect_scan(block, n, eps, r_end, n_samples, n_dim, e_inv, samples, cap, scratch, counts)
_SCAN_ARGTYPES = (
    _DOUBLES, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
    ctypes.c_int64, ctypes.c_double, _DOUBLES, ctypes.c_int64, _DOUBLES, _INT64S,
)
# pspect_reduce(block, n, eps, r_end, n_samples, n_dim, e_inv, guarded, work, out, counts)
_REDUCE_ARGTYPES = (
    _DOUBLES, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
    ctypes.c_int64, ctypes.c_double, ctypes.c_int, _DOUBLES, _DOUBLES, _INT64S,
)
# pspect_probe(rhs, state, t_end, h_min, rtol, atol_u, atol_v, has_limit, blowup_limit,
#              cap, buf, steps, eps, n_samples, out, counts)
_PROBE_ARGTYPES = _DP45_ARGTYPES + [ctypes.c_double, ctypes.c_int64, _DOUBLES, _INT64S]
# pspect_apply_f(rhs, u, n, out)
_APPLY_F_ARGTYPES = (ctypes.POINTER(_Rhs), _DOUBLES, ctypes.c_int64, _DOUBLES)
_State = ctypes.c_double * 6  # t, u, v, fu, fv, h
_Pair = ctypes.c_int64 * 2  # step counts of pspect_dp45, counts of pspect_scan
_Reading = ctypes.c_double * 3  # u(1), u(r_end), sup |u| of pspect_reduce
_Counts = ctypes.c_int64 * 4  # Z, grid length, zeros, status of pspect_reduce


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
    """The kernel library with its entry points ready to call, or None
    where it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError:
        return None
    for name, argtypes in (("dp45", _DP45_ARGTYPES), ("scan", _SCAN_ARGTYPES),
                           ("reduce", _REDUCE_ARGTYPES), ("probe", _PROBE_ARGTYPES),
                           ("apply_f", _APPLY_F_ARGTYPES)):
        fn = getattr(lib, f"pspect_{name}")
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


_doubles = ctypes.c_double.from_buffer  # a writable float64 array as a double *


def _spec(rhs: Rhs) -> _Rhs:
    bp, off, wc = rhs.weight.flat_addresses
    return _Rhs(rhs.family, rhs.n_dim, len(rhs.weight.coeffs), bp, off, wc, rhs.lam, rhs.e,
                1.0 / (rhs.p - 1.0), rhs.f0, rhs.finf, rhs.q, rhs.gc, rhs.ge, 0)


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
    spec = _spec(rhs)
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


def _check_block(block, n):
    if block.dtype != np.float64 or block.shape != (12 * n + 1,):
        raise ValueError(f"a dense block of {n} steps holds {12 * n + 1} float64 values, "
                         f"got {block.dtype} {block.shape}")


def _pairs(a):
    """(r, u') pairs from their flat array."""
    flat = a.tolist()
    return list(zip(flat[0::2], flat[1::2]))


def scan(block, n, eps, r_end, n_samples, n_dim, e_inv):
    """``pspect_scan`` over a shot of n steps in the block layout of
    ``_rk45.DenseOutput``: what ``radial_ivp._scan_reference`` returns, with
    its sign changes refined as ``radial_ivp._locate_zeros`` refines them,
    to the same bits: (grid, u, v, tail maxima, (u(1), v(1)), zeros as
    (r, u') pairs).  None when the kernel is missing, n < 1, n_samples < 2
    or the refinement of a zero would raise in Python."""
    lib = load()
    if lib is None or n < 1 or n_samples < 2:
        return None
    _check_block(block, n)
    cap = n_samples + n + 1
    samples = np.empty(3 * cap)
    scratch = np.empty(cap + 2 + 4 * n)
    counts = _Pair()
    if lib.pspect_scan(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                       _doubles(samples), cap, _doubles(scratch), counts):
        return None
    g, k = counts
    return (samples[:g], samples[cap:cap + g], samples[2 * cap:2 * cap + g], scratch[:g],
            tuple(scratch[cap:cap + 2].tolist()), _pairs(scratch[cap + 2:cap + 2 + 2 * k]))


class Reading(NamedTuple):
    """A shot reduced to what ``radial_ivp.probe`` reports (``pspect_reduce``).

    z is the number of interior zeros, or None where the tail filter needs
    sup |u'|: tail then holds the grid, v on it, the tail maxima of |u| and
    the zeros as (r, u') pairs, for ``radial_ivp`` to filter.
    """

    u1: float
    u_end: float
    sup_u: float
    z: int | None
    tail: tuple | None


def _reading(work, n, n_samples, out, counts, status) -> Reading:
    z, g, k = counts[0], counts[1], counts[2]
    if status != TAIL:
        return Reading(out[0], out[1], out[2], z, None)
    cap = n_samples + n + 1
    tail = (work[:g].copy(), work[2 * cap:2 * cap + g].copy(), work[3 * cap:3 * cap + g].copy(),
            _pairs(work[4 * cap + 2:4 * cap + 2 + 2 * k]))
    return Reading(out[0], out[1], out[2], None, tail)


def _work_size(n, n_samples):
    return 8 * n + 4 * n_samples + 6


def reduce(block, n, eps, r_end, n_samples, n_dim, e_inv, guarded) -> Reading | None:
    """``pspect_reduce`` over a finished shot of n steps in the block layout
    of ``_rk45.DenseOutput``: the :class:`Reading` ``radial_ivp.probe``
    makes of it, or None when the kernel is missing, n < 1, n_samples < 2
    or Python would raise (see ``pspect_reduce``)."""
    lib = load()
    if lib is None or n < 1 or n_samples < 2:
        return None
    _check_block(block, n)
    work = np.empty(_work_size(n, n_samples))
    out, counts = _Reading(), _Counts()
    status = lib.pspect_reduce(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                               guarded, _doubles(work), out, counts)
    return None if status == RERUN else _reading(work, n, n_samples, out, counts, status)


def probe(rhs: Rhs, state, t_end, h_min, rtol, atol_u, atol_v, blowup_limit, eps, n_samples):
    """One shot with right-hand side ``rhs`` marched and reduced on the
    kernel in one call (``pspect_probe``).

    state is (t, u, v, f(t, u, v), h), the state of ``_rk45.integrate``
    after its initial step.  Returns None when the kernel is missing or
    hands the shot back (a Python float operation would have raised), else
    (status, t, accepted, rejected, reading) with the march's status and
    final t, and the :class:`Reading` of an END or BLOWUP shot (None after
    UNDERFLOW).  Each call has buffers of its own.
    """
    lib = load()
    if lib is None:
        return None
    spec = _spec(rhs)
    steps, out, counts = _Pair(), _Reading(), _Counts()
    has_limit = blowup_limit is not None
    limit = blowup_limit if has_limit else 0.0
    cap = FIRST_CAPACITY
    while True:
        buf = np.empty(12 * cap + 1 + _work_size(cap, n_samples))
        st = _State(*state)
        status = lib.pspect_probe(spec, st, t_end, h_min, rtol, atol_u, atol_v, has_limit,
                                  limit, cap, _doubles(buf), steps, eps, n_samples, out, counts)
        if status != FULL:
            break
        cap *= 2
    if status == RERUN:
        return None
    n = steps[0]
    reading = None
    if status != UNDERFLOW:
        reading = _reading(buf[12 * n + 1:], n, n_samples, out, counts, counts[3])
    return status, st[0], n, steps[1], reading


def apply_f(params, u):
    """F(u) of a built-in ``nodal.Nonlinearity`` on the float64 array u,
    with its ``kernel_params()`` (family, e, f0, finf, q): the bits of its
    Python f.  None when the kernel is missing or Python would raise."""
    lib = load()
    if lib is None:
        return None
    family, e, f0, finf, q = (*params, 0.0, 0.0, 0.0)[:5]
    u = np.array(u, dtype=np.float64)  # a writable copy, whatever u is
    out = np.empty_like(u)
    spec = _Rhs(family, 0, 0, None, None, None, 0.0, e, 0.0, f0, finf, q, 0.0, 0.0, 0)
    if lib.pspect_apply_f(spec, _doubles(u), u.size, _doubles(out)):
        return None
    return out
