"""Build and load the compiled step loop, post-pass, probe and root solve
of the radial problems.

``_rk45_kernel.c`` holds six entry points.  ``pspect_dp45`` is the
Dormand-Prince loop of ``_rk45.integrate`` with the right-hand side of a
linear, nonlinear (built-in ``Nonlinearity`` families) or perturbed
(built-in ``Perturbation``) shot written into it, operation for
operation, so it returns the bits of the Python stepper (:func:`run`).
:class:`Rhs` describes that right-hand side; ``radial_ivp``'s RHS
classes build it.  ``pspect_scan`` reads a finished shot off its dense
output, whichever loop ran it, as ``radial_ivp._scan_reference`` does in
numpy and ``radial_ivp._locate_zeros`` in Python, and to the same bits:
the sample grid and u, v on it, the running maxima of |u|, u(1), sup |u'|
and the zeros of u with u' there, each refined by a port of
``radial_ivp.brentq`` (:func:`scan`).

``pspect_reduce`` reduces a finished shot to what ``radial_ivp.probe``
reports, tail filter included (:func:`reduce`), and ``pspect_probe`` is
the whole probe in one call (:func:`probe`): the start, ``pspect_dp45``
and ``pspect_reduce``, with no trajectory built.  The start is
``radial_ivp.origin_startup`` and the start of ``_rk45.integrate`` ported
operation for operation, with a port of CPython's ``math.hypot`` for two
values (its ``vector_norm``; :func:`hypot` exposes it for its test).  The
port gives ``math.hypot``'s bits on zeros and normal numbers under Python
3.10 to 3.13; on a subnormal or non-finite input it hands the probe back.
So does a probe on which Python would raise: in the start, in the march
as above, in the refinement of a zero, and, with no blow-up guard, on a
shot that is not finite.  ``pspect_apply_f`` computes F of the PHI and
RATIONAL families on an array, for the fixed-point residual
(:func:`apply_f`).

``pspect_solve`` runs Brent's method, the routine that refines the zeros,
on the miss D of ``pspect_probe`` as a function of the right-hand side's
lam (gamma or mu) or of u(0), in one call (:func:`solve`).  A trial that
``pspect_probe`` hands back or that underflows its step size, a NaN miss
and no convergence hand the solve back: the caller then runs Brent's
method over ``radial_ivp.probe``, which returns or raises as it always
has.  No buffer outlives a call, as ctypes releases the GIL during one.

The source is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed flags ``FLAGS``, into
``__pycache__`` next to this file, under a name keyed by a hash of the
source, the compiler and the flags; later processes load that file.  The
flags are part of the bit-identity: ``-ffp-contract=off`` forbids fused
multiply-adds and ``-fno-builtin`` keeps ``pow(x, 2.0)`` a libm call, as
CPython's ``**`` makes it; ``-ffast-math`` and ``-march=native`` stay
out.  The post-pass takes no numpy array power: it need not round as
libm's ``pow`` does.  Where no compiler runs or the cache cannot be
written, :func:`load` returns None, every shot takes the Python stepper,
``shoot`` the numpy post-pass and Python zero refinement, ``probe`` the
reduction of the whole shot, and a root solve Brent's method over
``probe``.
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

# status codes of pspect_dp45, pspect_probe and pspect_solve
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


_DOUBLES = ctypes.POINTER(ctypes.c_double)
_INT64S = ctypes.POINTER(ctypes.c_int64)
# pspect_dp45(rhs, state, t_end, h_min, rtol, atol_u, atol_v, has_limit,
#             blowup_limit, cap, buf, steps)
_DP45_ARGTYPES = (
    [ctypes.POINTER(_Rhs), _DOUBLES] + [ctypes.c_double] * 5
    + [ctypes.c_int, ctypes.c_double, ctypes.c_int64, _DOUBLES, _INT64S]
)
# pspect_scan(block, n, eps, r_end, n_samples, n_dim, e_inv, samples, cap, scratch, counts)
_SCAN_ARGTYPES = (
    _DOUBLES, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
    ctypes.c_int64, ctypes.c_double, _DOUBLES, ctypes.c_int64, _DOUBLES, _INT64S,
)
# pspect_reduce(block, n, eps, r_end, n_samples, n_dim, e_inv, guarded, work, out)
_REDUCE_ARGTYPES = (
    _DOUBLES, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
    ctypes.c_int64, ctypes.c_double, ctypes.c_int, _DOUBLES, _DOUBLES,
)
# pspect_probe(rhs, alpha, m0, p_conj, eps, rtol, atol_u, atol_v, has_limit, blowup_limit,
#              blowup_miss, n_samples, cap, buf, rec)
_PROBE_ARGTYPES = (
    [ctypes.POINTER(_Rhs)] + [ctypes.c_double] * 7
    + [ctypes.c_int, ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
       _DOUBLES, _DOUBLES]
)
# pspect_apply_f(rhs, u, n, out)
_APPLY_F_ARGTYPES = (ctypes.POINTER(_Rhs), _DOUBLES, ctypes.c_int64, _DOUBLES)
# pspect_solve(rhs, in_alpha, alpha, m0, p_conj, a, b, fa, fb, xtol, xrtol, maxiter, eps,
#              rtol, atol_u, atol_v, has_limit, blowup_limit, blowup_miss, n_samples, cap,
#              buf, out)
_SOLVE_ARGTYPES = (
    [ctypes.POINTER(_Rhs), ctypes.c_int] + [ctypes.c_double] * 9 + [ctypes.c_int64]
    + [ctypes.c_double] * 4 + [ctypes.c_int, ctypes.c_double, ctypes.c_double]
    + [ctypes.c_int64, ctypes.c_int64, _DOUBLES, _DOUBLES]
)
# pspect_hypot(x, y, out)
_HYPOT_ARGTYPES = (ctypes.c_double, ctypes.c_double, _DOUBLES)
# a probe's record (pspect_probe's rec): d, sup |u|, Z, blow-up, accepted and rejected steps
RECORD = 6
LOG_ROW = 1 + RECORD  # a trial of pspect_solve: x, then its record
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
    """The kernel library with its entry points ready to call, or None
    where it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError:
        return None
    for name, argtypes in (("dp45", _DP45_ARGTYPES), ("scan", _SCAN_ARGTYPES),
                           ("reduce", _REDUCE_ARGTYPES), ("probe", _PROBE_ARGTYPES),
                           ("apply_f", _APPLY_F_ARGTYPES), ("solve", _SOLVE_ARGTYPES),
                           ("hypot", _HYPOT_ARGTYPES)):
        fn = getattr(lib, f"pspect_{name}")
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


_doubles = ctypes.c_double.from_buffer  # a writable float64 array as a double *


def _spec(rhs: Rhs) -> _Rhs:
    bp, off, wc = rhs.weight.flat_addresses
    return _Rhs(rhs.family, rhs.n_dim, len(rhs.weight.coeffs), bp, off, wc, rhs.lam, rhs.e,
                1.0 / (rhs.p - 1.0), rhs.f0, rhs.finf, rhs.q, rhs.gc, rhs.ge, 0)


def _guard(blowup_limit):
    """(has_limit, blowup_limit) as the kernel takes a blow-up guard."""
    return (0, 0.0) if blowup_limit is None else (1, blowup_limit)


def _grown(size, call):
    """(status, buf) of call(buf, cap) on a fresh buffer of size(cap) doubles,
    with cap FIRST_CAPACITY accepted steps, doubled while it returns FULL."""
    cap = FIRST_CAPACITY
    while True:
        buf = np.empty(size(cap))
        status = call(buf, cap)
        if status != FULL:
            return status, buf
        cap *= 2


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
    spec, steps = _spec(rhs), _Pair()
    guard = _guard(blowup_limit)
    status, buf = _grown(lambda cap: 12 * cap + 1, lambda buf, cap: lib.pspect_dp45(
        spec, (ctypes.c_double * 6)(t, u, v, fu, fv, h), t_end, h_min, rtol, atol_u, atol_v,
        *guard, cap, _doubles(buf), steps))
    if status == RERUN:
        return None
    n = steps[0]
    block = buf[:12 * n + 1].copy()
    return status, float(block[n]), block, n, steps[1]


def _check_block(block, n):
    if block.dtype != np.float64 or block.shape != (12 * n + 1,):
        raise ValueError(f"a dense block of {n} steps holds {12 * n + 1} float64 values, "
                         f"got {block.dtype} {block.shape}")


def scan(block, n, eps, r_end, n_samples, n_dim, e_inv):
    """``pspect_scan`` over a shot of n steps in the block layout of
    ``_rk45.DenseOutput``: what ``radial_ivp._scan_reference`` returns, with
    its sign changes refined as ``radial_ivp._locate_zeros`` refines them,
    to the same bits: (grid, u, v, tail maxima, (u(1), v(1)), sup |u'|,
    zeros as (r, u') pairs).  None when the kernel is missing, n < 1,
    n_samples < 2 or the refinement of a zero would raise in Python."""
    lib = load()
    if lib is None or n < 1 or n_samples < 2:
        return None
    _check_block(block, n)
    cap = n_samples + n + 1
    samples = np.empty(3 * cap)
    scratch = np.empty(cap + 3 + 4 * n)
    counts = _Pair()
    if lib.pspect_scan(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                       _doubles(samples), cap, _doubles(scratch), counts):
        return None
    g, k = counts
    u1, v1, sup_uprime, *zeros = scratch[cap:cap + 3 + 2 * k].tolist()
    return (samples[:g], samples[cap:cap + g], samples[2 * cap:2 * cap + g], scratch[:g],
            (u1, v1), sup_uprime, list(zip(zeros[0::2], zeros[1::2])))


class Reading(NamedTuple):
    """A shot reduced to what ``radial_ivp.probe`` reports (``pspect_reduce``):
    u(1), u where the shot stopped, sup |u| and the number z of interior
    zeros."""

    u1: float
    u_end: float
    sup_u: float
    z: int


def _work_size(n, n_samples):
    return 8 * n + 4 * n_samples + 7


def reduce(block, n, eps, r_end, n_samples, n_dim, e_inv, guarded) -> Reading | None:
    """``pspect_reduce`` over a finished shot of n steps in the block layout
    of ``_rk45.DenseOutput``: the :class:`Reading` ``radial_ivp.probe``
    makes of it, or None when the kernel is missing, n < 1, n_samples < 2
    or Python would raise (see ``pspect_reduce``)."""
    lib = load()
    if lib is None or n < 1 or n_samples < 2:
        return None
    _check_block(block, n)
    out = (ctypes.c_double * 4)()
    if lib.pspect_reduce(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv, guarded,
                         _doubles(np.empty(_work_size(n, n_samples))), out):
        return None
    u1, u_end, sup_u, z = out
    return Reading(u1, u_end, sup_u, int(z))


def probe(rhs: Rhs, alpha, m0, p_conj, eps, rtol, atol_u, atol_v, blowup_limit, blowup_miss,
          n_samples):
    """One probe from u(0) = alpha with right-hand side ``rhs`` on the
    kernel in one call (``pspect_probe``): the start, the march to r = 1
    and the reduction.

    m0 is the weight at 0 (``Weight.eval_scalar``) and p_conj p / (p - 1).
    Returns None when the kernel is missing or hands the probe back (Python
    would raise on the way), else (status, record) with the march's status
    and the :data:`RECORD` values d, sup |u|, Z, blow-up, accepted and
    rejected steps; after UNDERFLOW the first is the r where the step size
    underflowed.  Each call has buffers of its own.
    """
    lib = load()
    if lib is None:
        return None
    spec = _spec(rhs)
    guard = _guard(blowup_limit)
    rec = (ctypes.c_double * RECORD)()
    status, _ = _grown(lambda cap: 12 * cap + 1 + _work_size(cap, n_samples),
                       lambda buf, cap: lib.pspect_probe(
                           spec, alpha, m0, p_conj, eps, rtol, atol_u, atol_v, *guard,
                           blowup_miss, n_samples, cap, _doubles(buf), rec))
    if status == RERUN:
        return None
    return status, rec[:]


def solve(rhs: Rhs, in_alpha, a, b, fa, fb, xtol, xrtol, maxiter, alpha, m0, p_conj, eps,
          rtol, atol_u, atol_v, blowup_limit, blowup_miss, n_samples):
    """The root in [a, b] of the miss D of ``pspect_probe`` as a function of
    ``rhs.lam`` (or of alpha, in_alpha), by Brent's method on the kernel in
    one call (``pspect_solve``); fa and fb are D at a and b.

    The arguments from alpha on are those of :func:`probe` (alpha unused
    where in_alpha).  Returns None when the
    kernel is missing or hands the solve back, else (root, record) with the
    record of the trial at the root, as :func:`probe` returns it, or None
    where the root is an end.  Each call has buffers of its own.
    """
    lib = load()
    if lib is None:
        return None
    spec = _spec(rhs)
    guard = _guard(blowup_limit)
    out = (ctypes.c_double * 2)()
    status, buf = _grown(
        lambda cap: LOG_ROW * maxiter + 12 * cap + 1 + _work_size(cap, n_samples),
        lambda buf, cap: lib.pspect_solve(spec, in_alpha, alpha, m0, p_conj, a, b, fa, fb,
                                          xtol, xrtol, maxiter, eps, rtol, atol_u, atol_v,
                                          *guard, blowup_miss, n_samples, cap, _doubles(buf),
                                          out))
    if status == RERUN:
        return None
    root, k = out[0], int(out[1])
    return root, None if k < 0 else buf[LOG_ROW * k + 1:LOG_ROW * (k + 1)].tolist()


def hypot(x, y):
    """The port of ``math.hypot`` the kernel starts each probe with, or
    None for the inputs it hands back (a subnormal or non-finite one) or
    when the kernel is missing."""
    lib = load()
    if lib is None:
        return None
    out = ctypes.c_double()
    return None if lib.pspect_hypot(x, y, ctypes.byref(out)) else out.value


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
