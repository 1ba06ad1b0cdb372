"""Build and load the compiled shot, post-pass, probe and root solve of the
radial problems.

``_rk45_kernel.c`` holds seven entry points.  ``pspect_shoot`` is the
whole of ``radial_ivp.shoot``'s shot in one call (:func:`shoot`): the
start at the origin, the Dormand-Prince loop of ``_rk45.integrate`` and
the post-pass.  The loop has the right-hand side of a linear, nonlinear
(built-in ``Nonlinearity`` families) or perturbed (built-in
``Perturbation``) shot written into it, operation for operation, so it
gives the bits of the Python stepper.  The start is
``radial_ivp.origin_startup`` and the start of ``_rk45.integrate`` ported
the same way, with a port of CPython's ``math.hypot`` for two values (its
``vector_norm``; :func:`hypot` exposes it for its test).  The port gives
``math.hypot``'s bits on zeros and normal numbers under Python 3.10 to
3.13; on a subnormal or non-finite input it hands the shot back.
``pspect_scan`` is the post-pass alone over a given block (:func:`scan`),
as ``radial_ivp._scan_reference`` computes it in numpy and
``radial_ivp._locate_zeros`` in Python, and to the same bits: the sample
grid and u, v on it, the running maxima of |u|, u(1), sup |u'| and the
zeros of u with u' there, each refined by a port of ``radial_ivp.brentq``.

``pspect_reduce`` reduces a given block to what ``radial_ivp.probe``
reports, tail filter included (:func:`reduce`), and ``pspect_probe`` is
the whole probe in one call (:func:`probe`): the start, the march and
``pspect_reduce``, with no trajectory built.  ``pspect_solve`` runs
Brent's method, the routine that refines the zeros, on the miss D of
``pspect_probe`` as a function of the right-hand side's lam (gamma or mu)
or of u(0), in one call (:func:`solve`).  ``pspect_apply_f`` computes F of
the PHI and RATIONAL families on an array, for the fixed-point residual
(:func:`apply_f`).  :func:`scan`, :func:`reduce` and :func:`hypot` are how
the tests reach C on edited blocks and chosen inputs.

:class:`Rhs` is the right-hand side of a shot in the kernel's terms
(``radial_ivp``'s RHS classes build it with :func:`rhs`), and
:class:`Shot` one shot: the right-hand side, u(0), m(0), p', the start
radius, the tolerances, the blow-up guard and the sample count.
``pspect_shoot``, ``pspect_probe`` and ``pspect_solve`` each take one
Shot, which ``radial_ivp._shot`` builds.  A call hands its shot back
(returns None) where Python would raise on the way: in the start, in the
march (a power that overflows, a division by zero) and in the refinement
of a zero.  The caller then takes the Python path, which returns or
raises as it always has.  A solve is handed back also on a NaN miss and
on no convergence.
No buffer outlives a call, as ctypes releases the GIL during one.

The source is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed flags ``FLAGS``, into
``__pycache__`` next to this file, under a name keyed by a hash of the
source, the compiler and the flags; later processes load that file.  The
flags are part of the bit-identity: ``-ffp-contract=off`` forbids fused
multiply-adds and ``-fno-builtin`` keeps ``pow(x, 2.0)`` a libm call, as
CPython's ``**`` makes it; ``-ffast-math`` and ``-march=native`` stay
out.  The post-pass takes no numpy array power: it need not round as
libm's ``pow`` does.  Where no compiler runs or the cache cannot be
written, :func:`load` returns None and every shot, probe and root solve
takes the Python path.
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

# status codes of pspect_shoot, pspect_probe and pspect_solve
END, BLOWUP, UNDERFLOW, FULL, RERUN = range(5)

# right-hand side families (Rhs.family)
LINEAR, PHI, RATIONAL, PERTURBED = range(4)

BRENT_MAXITER = 100  # _rk45_kernel.c's, the trials a solve logs at most


class Rhs(ctypes.Structure):  # struct Rhs of _rk45_kernel.c
    """The right-hand side of one shot in the kernel's terms (:func:`rhs`)."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("family", "n_dim", "n_pieces")]
        + [(name, ctypes.c_void_p) for name in ("bp", "off", "c")]
        + [(name, ctypes.c_double)
           for name in ("lam", "e", "e_inv", "f0", "finf", "q", "gc", "ge")]
        + [("bad", ctypes.c_int)]
    )


def rhs(p, n_dim, weight, lam, family, e, f0=0.0, finf=0.0, q=0.0, gc=0.0, ge=0.0) -> Rhs:
    """W = lam m(r) F(u) on the system of exponent p and dimension n_dim,
    m the ``Weight`` weight, with F by family: LINEAR and PERTURBED
    _sgnpow(u, e), PHI and RATIONAL the ``Nonlinearity`` form of that name
    with its exponent e (and f0, finf, q); PERTURBED adds gc m(r) sgn(u)
    |u|^ge.  The kernel reads the weight through its addresses: it must
    outlive the calls the Rhs goes to."""
    bp, off, c = weight.flat_addresses
    return Rhs(family, n_dim, len(weight.coeffs), bp, off, c, lam, e, 1.0 / (p - 1.0), f0,
               finf, q, gc, ge, 0)


class Shot(ctypes.Structure):  # struct Shot of _rk45_kernel.c
    """One shot from u(0) = alpha to r = 1 with right-hand side rhs: m0 is
    the weight at 0, p_conj p / (p - 1), eps the start radius, the march
    stops where |u| reaches blowup_limit, and the shot is read on a grid of
    n_samples uniform points united with its nodes."""

    _fields_ = (
        [("rhs", Rhs)]
        + [(name, ctypes.c_double)
           for name in ("alpha", "m0", "p_conj", "eps", "rtol", "atol_u", "atol_v")]
        + [("blowup_limit", ctypes.c_double), ("n_samples", ctypes.c_int64)]
    )


_DOUBLES = ctypes.POINTER(ctypes.c_double)
_INT64S = ctypes.POINTER(ctypes.c_int64)
_SHOT = ctypes.POINTER(Shot)
_ARGTYPES = {
    # pspect_shoot(shot, cap, buf, t, counts)
    "shoot": (_SHOT, ctypes.c_int64, _DOUBLES, _DOUBLES, _INT64S),
    # pspect_probe(shot, cap, buf, rec)
    "probe": (_SHOT, ctypes.c_int64, _DOUBLES, _DOUBLES),
    # pspect_scan(block, n, eps, r_end, n_samples, n_dim, e_inv, samples, cap, scratch, counts)
    "scan": (_DOUBLES, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
             ctypes.c_int64, ctypes.c_double, _DOUBLES, ctypes.c_int64, _DOUBLES, _INT64S),
    # pspect_reduce(block, n, eps, r_end, n_samples, n_dim, e_inv, work, out)
    "reduce": (_DOUBLES, ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
               ctypes.c_int64, ctypes.c_double, _DOUBLES, _DOUBLES),
    # pspect_solve(shot, in_alpha, a, b, fa, fb, xtol, xrtol, cap, buf, out)
    "solve": (_SHOT, ctypes.c_int) + (ctypes.c_double,) * 6 + (ctypes.c_int64, _DOUBLES,
                                                                _DOUBLES),
    # pspect_apply_f(rhs, u, n, out)
    "apply_f": (ctypes.POINTER(Rhs), _DOUBLES, ctypes.c_int64, _DOUBLES),
    # pspect_hypot(x, y, out)
    "hypot": (ctypes.c_double, ctypes.c_double, _DOUBLES),
}
# a probe's record (pspect_probe's rec): d, sup |u|, Z, blow-up, accepted and rejected steps
RECORD = 6
LOG_ROW = 1 + RECORD  # a trial of pspect_solve: x, then its record


def _build() -> str:
    """Path of the compiled library, compiling it if no cached copy exists."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise OSError("Python reports no C compiler")
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + repr((cc, FLAGS)).encode()).hexdigest()[:16]
    path = os.path.join(CACHE_DIR, f"_rk45_kernel-{key}.so")
    if os.path.exists(path):
        return path
    import subprocess  # only a build needs them: a few ms of every start-up otherwise
    import tempfile

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
    for name, argtypes in _ARGTYPES.items():
        fn = getattr(lib, f"pspect_{name}")
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


_doubles = ctypes.c_double.from_buffer  # a writable float64 array as a double *


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


def _work_size(n, n_samples):
    """Doubles of the samples and scratch of a post-pass of n steps."""
    return 8 * n + 4 * n_samples + 7


def _shot_size(shot):
    """Doubles of the buffer of a shot or probe of cap steps, as a function of cap."""
    return lambda cap: 12 * cap + 1 + _work_size(cap, shot.n_samples)


def _read(samples, scratch, cap, g, k):
    """What :func:`scan` returns, from pspect_scan's samples and scratch of
    cap points, with g grid points and k zeros; the arrays are copies."""
    u1, v1, sup_uprime, *zeros = scratch[cap:cap + 3 + 2 * k].tolist()
    return (samples[:g].copy(), samples[cap:cap + g].copy(), samples[2 * cap:2 * cap + g].copy(),
            scratch[:g].copy(), (u1, v1), sup_uprime, list(zip(zeros[0::2], zeros[1::2])))


def shoot(shot: Shot):
    """One shot on the kernel in one call (``pspect_shoot``): the start, the
    march to r = 1 and the post-pass.

    Returns None when the kernel is missing or hands the shot back (Python
    would raise on the way), else (status, r, accepted, rejected, block,
    reading): the march's status, the r where it stopped, its step counts,
    the block of its accepted steps in the layout of ``_rk45.DenseOutput``
    and what :func:`scan` returns for that block; after UNDERFLOW block and
    reading are None.  Each call has buffers of its own.
    """
    lib = load()
    if lib is None:
        return None
    r, counts = ctypes.c_double(), (ctypes.c_int64 * 4)()
    status, buf = _grown(_shot_size(shot), lambda buf, cap: lib.pspect_shoot(
        shot, cap, _doubles(buf), ctypes.byref(r), counts))
    if status == RERUN:
        return None
    r, (n, rejected, g, k) = r.value, counts
    if status == UNDERFLOW:
        return status, r, n, rejected, None, None
    cap = shot.n_samples + n + 1
    work = buf[12 * n + 1:]
    return (status, r, n, rejected, buf[:12 * n + 1].copy(),
            _read(work, work[3 * cap:], cap, g, k))


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
    counts = (ctypes.c_int64 * 2)()
    if lib.pspect_scan(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                       _doubles(samples), cap, _doubles(scratch), counts):
        return None
    return _read(samples, scratch, cap, *counts)


class Reading(NamedTuple):
    """A shot reduced to what ``radial_ivp.probe`` reports (``pspect_reduce``):
    u(1), u where the shot stopped, sup |u| and the number z of interior
    zeros."""

    u1: float
    u_end: float
    sup_u: float
    z: int


def reduce(block, n, eps, r_end, n_samples, n_dim, e_inv) -> Reading | None:
    """``pspect_reduce`` over a finished shot of n steps in the block layout
    of ``_rk45.DenseOutput``: the :class:`Reading` ``radial_ivp.probe``
    makes of it, or None when the kernel is missing, n < 1, n_samples < 2
    or Python would raise (see ``pspect_reduce``)."""
    lib = load()
    if lib is None or n < 1 or n_samples < 2:
        return None
    _check_block(block, n)
    out = (ctypes.c_double * 4)()
    if lib.pspect_reduce(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                         _doubles(np.empty(_work_size(n, n_samples))), out):
        return None
    u1, u_end, sup_u, z = out
    return Reading(u1, u_end, sup_u, int(z))


def probe(shot: Shot):
    """One probe of the shot on the kernel in one call (``pspect_probe``):
    the start, the march to r = 1 and the reduction.

    Returns None when the kernel is missing or hands the probe back (Python
    would raise on the way), else (status, record) with the march's status
    and the :data:`RECORD` values d, sup |u|, Z, blow-up, accepted and
    rejected steps; after UNDERFLOW the first is the r where the step size
    underflowed.  Each call has buffers of its own.
    """
    lib = load()
    if lib is None:
        return None
    rec = (ctypes.c_double * RECORD)()
    status, _ = _grown(_shot_size(shot),
                       lambda buf, cap: lib.pspect_probe(shot, cap, _doubles(buf), rec))
    if status == RERUN:
        return None
    return status, rec[:]


def solve(shot: Shot, in_alpha, a, b, fa, fb, xtol, xrtol):
    """The root in [a, b] of the miss D of ``pspect_probe`` as a function of
    the lam of the shot's right-hand side (or of its alpha, in_alpha), by
    Brent's method on the kernel in one call (``pspect_solve``); fa and fb
    are D at a and b.

    Returns None when the kernel is missing or hands the solve back, else
    (root, record) with the record of the trial at the root, as
    :func:`probe` returns it, or None where the root is an end.  Each call
    has buffers of its own.
    """
    lib = load()
    if lib is None:
        return None
    out = (ctypes.c_double * 2)()
    size = _shot_size(shot)
    status, buf = _grown(lambda cap: LOG_ROW * BRENT_MAXITER + size(cap),
                         lambda buf, cap: lib.pspect_solve(shot, in_alpha, a, b, fa, fb, xtol,
                                                           xrtol, cap, _doubles(buf), out))
    if status == RERUN:
        return None
    root, k = out[0], int(out[1])
    return root, None if k < 0 else buf[LOG_ROW * k + 1:LOG_ROW * (k + 1)].tolist()


def hypot(x, y):
    """The port of ``math.hypot`` the kernel starts each shot with, or None
    for the inputs it hands back (a subnormal or non-finite one) or when the
    kernel is missing."""
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
    spec = Rhs(family, 0, 0, None, None, None, 0.0, e, 0.0, f0, finf, q, 0.0, 0.0, 0)
    if lib.pspect_apply_f(spec, _doubles(u), u.size, _doubles(out)):
        return None
    return out
