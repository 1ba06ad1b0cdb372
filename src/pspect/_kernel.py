"""Build and load the compiled shot, post-pass, probe and root solve of the
radial problems, and raise what they stop on.

``_rk45_kernel.c`` holds eight entry points: ``pspect_shoot``, the whole
of ``radial_ivp.shoot``'s shot (:func:`shoot`: the start at the origin,
the Dormand-Prince loop and the post-pass); ``pspect_probe``, the whole
of ``radial_ivp.probe`` (:func:`probe`); ``pspect_solve``, Brent's method
on the miss of ``pspect_probe`` in the right-hand side's lam or in u(0),
and the shot at the root (:func:`solve`); ``pspect_scan`` and
``pspect_reduce``, the post-pass and the probe's reduction of a given
block (:func:`scan`, :func:`reduce`);
``pspect_apply_w``, the march's w of any family on arrays, for the
fixed-point residual (:func:`apply_w`) and m(r) (:func:`weight`);
``pspect_hypot``, the port of ``math.hypot`` the start takes
(:func:`hypot`); and ``pspect_follow``,
which :func:`load` calls to give that port the NaN and the subnormal
branch of the running Python's ``math.hypot``.  :func:`scan`,
:func:`reduce` and :func:`hypot` are how the tests reach C on edited
blocks and chosen inputs.

:class:`Shot` is one shot (``radial_ivp._shot`` builds it), with its
right-hand side :class:`Rhs`: a built-in one is fused into the loop, any
other is called back (family CALLBACK, :class:`Callback`).  Each call
gives the bits of the Python reference (``tests/reference.py``) or raises
what it raises: the kernel returns the status of the first error Python
would meet (OVERFLOW and after), and :data:`_ERRORS` makes the exception,
an OverflowError or ZeroDivisionError from the same Python operation, so
that its message follows the running Python; a callback's own exception
is raised as it was.  No buffer outlives a call, as ctypes releases the
GIL during one.

The source is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed flags ``FLAGS``, into
``__pycache__`` next to this file or, where that cannot be written,
``$XDG_CACHE_HOME/pspect`` (``~/.cache/pspect`` where it is unset), under
a name keyed by a hash of the source, the compiler and the flags; later
processes load that file, and a build removes the libraries of other
keys there.  The flags are part of the bit-identity: ``-ffp-contract=off``
forbids fused multiply-adds and ``-fno-builtin-pow`` keeps ``pow(x, 2.0)``
a libm call, as CPython's ``**`` makes it (the compiler would make it
x * x, which differs from libm's pow in the last bit on some x).  The
other builtins stay: ``fabs``, ``copysign``, ``sqrt``, ``memcpy`` and
``memmove`` become instructions, with the bits of the libm calls.  The
compiler is required: where the build fails, :func:`load` raises an
OSError with the command, the source and the compiler's output, and
raises it again without building.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import operator
import os
import shlex
import sys
import sysconfig
import threading
from typing import NamedTuple

import numpy as np

from ._rk45 import _underflow
from .errors import PreconditionError

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk45_kernel.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin-pow")
FIRST_CAPACITY = 4096  # accepted steps the buffers of the first call hold

# status codes of the entry points: how a march ended, then what Python raises
(END, BLOWUP, UNDERFLOW, FULL, OVERFLOW, DIV_ZERO, ZERO_POW, RAISED, ALPHA_ZERO, NAN_END,
 SAME_SIGN, NAN_AT, NO_CONVERGENCE) = range(13)

# right-hand side families (Rhs.family)
LINEAR, RATIONAL, PERTURBED, CALLBACK = range(4)

BRENT_MAXITER = 100  # _rk45_kernel.c's, the trials a solve logs at most

# w(lam, m(r), r, u) of a CALLBACK right-hand side
WFUNC = ctypes.CFUNCTYPE(ctypes.c_double, *(ctypes.c_double,) * 4)


class Rhs(ctypes.Structure):  # struct Rhs of _rk45_kernel.c
    """The right-hand side of one shot in the kernel's terms (:func:`rhs`)."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("family", "n_dim", "n_pieces")]
        + [(name, ctypes.c_void_p) for name in ("bp", "off", "c")]
        + [(name, ctypes.c_double)
           for name in ("lam", "e", "e_inv", "f0", "finf", "q", "gc", "ge")]
        + [("cb", WFUNC), ("raised", ctypes.c_void_p), ("bad", ctypes.c_int)]
    )


class Callback:
    """A right-hand side the kernel calls back (family CALLBACK): fn is the
    C function of w(lam, m, r, u), m the kernel's m(r), which returns
    float(w(lam, m, r, u)).  Where w raises, fn keeps the exception in
    ``errors``, tells the kernel through ``raised`` and returns NaN; the
    kernel then calls it no more and stops.
    fn does not refer to the Callback, so that no reference cycle holds a
    shot."""

    def __init__(self, w):
        self.errors, self.raised = [], ctypes.c_int(0)
        errors, raised = self.errors, self.raised

        def call(lam, m, r, u):
            try:
                return float(w(lam, m, r, u))
            except BaseException as exc:  # ctypes cannot pass it through C: _raise re-raises it
                errors.append(exc)
                raised.value = 1
                return math.nan

        self.fn = WFUNC(call)


def rhs(p, n_dim, weight, lam, family, e, f0=0.0, finf=0.0, q=0.0, gc=0.0, ge=0.0,
        callback=None) -> Rhs:
    """W = lam m(r) F(u) on the system of exponent p and dimension n_dim,
    m the ``Weight`` weight, with F by family: LINEAR (also that of
    ``Nonlinearity.phi``) and PERTURBED _sgnpow(u, e), RATIONAL
    ``Nonlinearity.rational`` with its exponent e (and f0, finf, q);
    PERTURBED adds gc m(r) _sgnpow(u, ge); CALLBACK is callback's w (a
    :class:`Callback`).  The kernel reads the weight through its addresses:
    it must outlive the calls the Rhs goes to."""
    bp, off, c = weight.flat_addresses
    out = Rhs(family, n_dim, len(weight.coeffs), bp, off, c, lam, e, 1.0 / (p - 1.0), f0, finf,
              q, gc, ge)
    if callback is not None:
        out.cb, out.raised = callback.fn, ctypes.addressof(callback.raised)
    return out


class Shot(ctypes.Structure):  # struct Shot of _rk45_kernel.c
    """One shot from u(0) = alpha to r = 1 with right-hand side rhs: p_conj
    is p / (p - 1), eps the start radius, the march stops where |u| reaches
    blowup_limit, and the shot is read on a grid of n_samples uniform points
    united with its nodes.  callback is the :class:`Callback` of a CALLBACK
    right-hand side, kept with the shot."""

    _fields_ = (
        [("rhs", Rhs)]
        + [(name, ctypes.c_double)
           for name in ("alpha", "p_conj", "eps", "rtol", "atol_u", "atol_v")]
        + [("blowup_limit", ctypes.c_double), ("n_samples", ctypes.c_int64)]
    )
    callback = None


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
    # pspect_solve(shot, in_alpha, a, b, fa, fb, xtol, xrtol, n_shot, cap, buf, out, counts)
    "solve": ((_SHOT, ctypes.c_int) + (ctypes.c_double,) * 6
              + (ctypes.c_int64, ctypes.c_int64, _DOUBLES, _DOUBLES, _INT64S)),
    # pspect_apply_w(rhs, r, u, n, out)
    "apply_w": (ctypes.POINTER(Rhs), _DOUBLES, _DOUBLES, ctypes.c_int64, _DOUBLES),
    # pspect_hypot(x, y), which returns a double
    "hypot": (ctypes.c_double, ctypes.c_double),
    # pspect_follow(nan, rescales), which returns nothing
    "follow": (ctypes.c_double, ctypes.c_int),
}
# a probe's record (pspect_probe's rec): d, sup |u|, Z, blow-up, accepted and rejected steps
RECORD = 6
LOG_ROW = 1 + RECORD  # a trial of pspect_solve: x, then its record
RING = 3  # the last trials of pspect_solve whose blocks it keeps


def _cache_dirs():
    """Where a library is looked for and built: the package's
    ``__pycache__``, then the user's cache."""
    user = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return CACHE_DIR, os.path.join(user, "pspect")


def _build() -> str:
    """Path of the compiled library, compiling it if no cached copy exists."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise OSError(f"pspect compiles {SOURCE} on first use, and Python reports no C "
                      "compiler (sysconfig's CC)")
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + repr((cc, FLAGS)).encode()).hexdigest()[:16]
    name = f"_rk45_kernel-{key}.so"
    for cache in _cache_dirs():
        if os.path.exists(os.path.join(cache, name)):
            return os.path.join(cache, name)
    import glob  # only a build needs them: a few ms of every start-up otherwise
    import subprocess
    import tempfile

    for cache in _cache_dirs():
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError:  # not writable: the next one
            continue
        os.close(fd)
        cmd, path = [*cc, *FLAGS, "-o", tmp, SOURCE, "-lm"], os.path.join(cache, name)
        try:
            subprocess.run(cmd, check=True, capture_output=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            stderr = getattr(exc, "stderr", None)
            detail = stderr.decode(errors="replace") if stderr else str(exc)
            raise OSError(f"pspect needs a C compiler: {shlex.join(cmd)} failed to compile "
                          f"{SOURCE}:\n{detail}") from exc
        else:
            os.replace(tmp, path)  # atomic: a concurrent build writes the same file
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in glob.glob(os.path.join(cache, "_rk45_kernel-*.so")):  # other keys
            if stale != path:
                try:
                    os.unlink(stale)
                except FileNotFoundError:  # a concurrent build removed it first
                    pass
        return path
    raise OSError(f"pspect cannot build {SOURCE}: none of {', '.join(_cache_dirs())} can be "
                  "written")


@functools.cache
def _loaded():
    """The kernel library with its entry points ready to call, or the
    OSError of building or loading it."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError as exc:
        return exc
    for name, argtypes in _ARGTYPES.items():
        fn = getattr(lib, f"pspect_{name}")
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    lib.pspect_hypot.restype = ctypes.c_double
    lib.pspect_follow.restype = None
    # math.hypot's NaN and its branch for subnormal inputs, as this Python has them
    lib.pspect_follow(math.hypot(math.nan, 0.0), sys.version_info >= (3, 12))
    return lib


# lets one thread build and load the library while the others wait
_loading_lock = threading.Lock()


def load():
    """The kernel library; raises the OSError of the first build or load
    that failed, without building again.  Threads that ask for it at the
    same time get the one library, built and loaded once."""
    with _loading_lock:  # functools.cache alone would let each first caller build
        lib = _loaded()
    if isinstance(lib, OSError):
        raise lib
    return lib


def _arithmetic(op, *args):
    """The ArithmeticError that the Python operation op(*args) raises."""
    try:
        op(*args)
    except ArithmeticError as exc:
        return exc


# the exception of the reference where a call stops with a status, of the
# number x the status carries
_ERRORS = {
    UNDERFLOW: _underflow,
    OVERFLOW: lambda x: _arithmetic(operator.pow, 1e300, 2.0),
    DIV_ZERO: lambda x: _arithmetic(operator.truediv, 1.0, 0.0),
    ZERO_POW: lambda x: _arithmetic(operator.pow, 0.0, -1.0),
    ALPHA_ZERO: lambda x: PreconditionError("initial value alpha must be nonzero"),
    NAN_END: lambda x: ValueError("f is NaN at an end of the bracket"),
    SAME_SIGN: lambda x: ValueError("f(a) and f(b) must have different signs"),
    NAN_AT: lambda x: ValueError(f"f is NaN at x={x}"),
    NO_CONVERGENCE: lambda x: RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations."),
}


def _raise(status, x, callback=None):
    """Raise what the reference raises where a call stopped with status:
    the own exception of the call's :class:`Callback` for RAISED."""
    if status == RAISED:
        raise callback.errors.pop()  # popped: no cycle through its traceback
    raise _ERRORS[status](x)


_doubles = ctypes.c_double.from_buffer  # a writable float64 array as a double *


# accepted steps the buffers of the next call hold: the most a call has needed (a
# lost update between threads costs one march more, never a result)
_capacity = FIRST_CAPACITY


def _grown(size, call):
    """(status, buf) of call(buf, cap) on a fresh buffer of size(cap) doubles,
    with cap the largest capacity a call of this process has needed
    (FIRST_CAPACITY at first), doubled while it returns FULL: only the first
    call that outgrows a capacity marches again."""
    global _capacity
    cap = _capacity
    while True:
        buf = np.empty(size(cap))
        status = call(buf, cap)
        if status != FULL:
            _capacity = max(_capacity, cap)
            return status, buf
        cap *= 2


def _work_size(n, n_samples):
    """Doubles of the samples and scratch of a post-pass of n steps."""
    return 8 * n + 4 * n_samples + 7


def _shot_size(n_samples):
    """Doubles of the buffer of a shot or probe of cap steps with n_samples
    samples, as a function of cap."""
    return lambda cap: 12 * cap + 1 + _work_size(cap, n_samples)


def _read(samples, scratch, cap, g, k):
    """What :func:`scan` returns, from pspect_scan's samples and scratch of
    cap points, with g grid points and k zeros kept; the arrays are copies."""
    u1, v1, sup_uprime, *zeros = scratch[cap:cap + 3 + 2 * k].tolist()
    return (samples[:g].copy(), samples[cap:cap + g].copy(), samples[2 * cap:2 * cap + g].copy(),
            float(scratch[0]), (u1, v1), sup_uprime, list(zip(zeros[0::2], zeros[1::2])))


def shoot(shot: Shot):
    """One shot on the kernel in one call (``pspect_shoot``): the start, the
    march to r = 1 and the post-pass.

    Returns (status, r, accepted, rejected, block, reading): the march's
    status (END or BLOWUP), the r where it stopped, its step counts, the
    block of its accepted steps in the layout of ``_rk45.DenseOutput`` and
    what :func:`scan` returns for that block.  Raises what the reference
    raises.  Each call has buffers of its own.
    """
    lib = load()
    r, counts = ctypes.c_double(), (ctypes.c_int64 * 4)()
    status, buf = _grown(_shot_size(shot.n_samples), lambda buf, cap: lib.pspect_shoot(
        shot, cap, _doubles(buf), ctypes.byref(r), counts))
    if status not in (END, BLOWUP):
        _raise(status, r.value, shot.callback)
    return _shot_read(buf, shot.n_samples, status, r.value, *counts)


def _shot_read(buf, n_samples, status, r, n, rejected, g, k):
    """What :func:`shoot` returns, from the buffer of a shot of n steps with
    n_samples samples as ``pspect_shoot`` leaves it, g grid points and k
    zeros kept; the arrays are copies."""
    cap = n_samples + n + 1
    work = buf[12 * n + 1:]
    return (status, r, n, rejected, buf[:12 * n + 1].copy(),
            _read(work, work[3 * cap:], cap, g, k))


def _check_block(block, n):
    if n < 1:
        raise ValueError(f"a dense block holds one step or more, got {n}")
    if block.dtype != np.float64 or block.shape != (12 * n + 1,):
        raise ValueError(f"a dense block of {n} steps holds {12 * n + 1} float64 values, "
                         f"got {block.dtype} {block.shape}")


def scan(block, n, eps, r_end, n_samples, n_dim, e_inv):
    """``pspect_scan`` over a shot of n >= 1 steps in the block layout of
    ``_rk45.DenseOutput``: what the reference's post-pass returns, with its
    sign changes refined as the reference refines them, to the same bits:
    (grid, u, v, sup |u|, (u(1), v(1)), sup |u'|, zeros as (r, u') pairs).
    The zeros are those the kernel's tail filter keeps (``kept_zeros`` of
    ``_rk45_kernel.c``, which drops trailing noise crossings), as on every
    shot.  Raises what the refinement of a zero raises in Python."""
    lib = load()
    _check_block(block, n)
    cap = n_samples + n + 1
    samples = np.empty(3 * cap)
    scratch = np.empty(cap + 3 + 4 * n)
    counts = (ctypes.c_int64 * 2)()
    status = lib.pspect_scan(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                             _doubles(samples), cap, _doubles(scratch), counts)
    if status:
        _raise(status, scratch[cap])
    return _read(samples, scratch, cap, *counts)


class Reading(NamedTuple):
    """A shot reduced to what ``radial_ivp.probe`` reports (``pspect_reduce``):
    u(1), u where the shot stopped, sup |u| and the number z of interior
    zeros."""

    u1: float
    u_end: float
    sup_u: float
    z: int


def reduce(block, n, eps, r_end, n_samples, n_dim, e_inv) -> Reading:
    """``pspect_reduce`` over a finished shot of n >= 1 steps in the block
    layout of ``_rk45.DenseOutput``: the :class:`Reading` ``radial_ivp.probe``
    makes of it.  Raises what Python raises (see ``pspect_reduce``)."""
    lib = load()
    _check_block(block, n)
    out = (ctypes.c_double * 4)()
    status = lib.pspect_reduce(_doubles(block), n, eps, r_end, n_samples, n_dim, e_inv,
                               _doubles(np.empty(_work_size(n, n_samples))), out)
    if status:
        _raise(status, out[0])
    u1, u_end, sup_u, z = out
    return Reading(u1, u_end, sup_u, int(z))


def probe(shot: Shot):
    """One probe of the shot on the kernel in one call (``pspect_probe``):
    the start, the march to r = 1 and the reduction.

    Returns the :data:`RECORD` values d, sup |u|, Z, blow-up, accepted and
    rejected steps, or raises what the reference raises.  Each call has
    buffers of its own.
    """
    lib = load()
    rec = (ctypes.c_double * RECORD)()
    status, _ = _grown(_shot_size(shot.n_samples),
                       lambda buf, cap: lib.pspect_probe(shot, cap, _doubles(buf), rec))
    if status not in (END, BLOWUP):
        _raise(status, rec[0], shot.callback)
    return rec[:]


class Solved(NamedTuple):
    """A root solve of :func:`solve`: the root, the record of its trial (as
    :func:`probe` returns it; None where the root is a bracket end), the
    number of trials, whether the shot at the root was marched again, that
    shot, as :func:`shoot` returns it (None where the solve asked for none),
    and the trials in order, each a row of x and its record."""

    root: float
    record: list | None
    trials: int
    marched: bool
    shot: tuple | None
    log: list


def solve(shot: Shot, in_alpha, a, b, fa, fb, xtol, xrtol, n_shot) -> Solved:
    """The root in [a, b] of the miss D of ``pspect_probe`` as a function of
    the lam of the shot's right-hand side (or of its alpha, in_alpha), by
    Brent's method on the kernel in one call (``pspect_solve``); fa and fb
    are D at a and b.  The shot at the root, with n_shot samples, is read
    off the root's trial where it is one of the last :data:`RING`, and
    marched again only where it is not (a bracket end, an older trial);
    with n_shot = 0 the solve neither reads nor marches it.

    Raises what Brent's method over the reference's probe raises; where it
    does not converge, the RuntimeError carries the trials it made as its
    ``log``.  Each call has buffers of its own.
    """
    lib = load()
    out, counts = (ctypes.c_double * 2)(), (ctypes.c_int64 * 9)()
    slot = _shot_size(max(shot.n_samples, n_shot))
    status, buf = _grown(lambda cap: LOG_ROW * BRENT_MAXITER + RING * slot(cap),
                         lambda buf, cap: lib.pspect_solve(shot, in_alpha, a, b, fa, fb, xtol,
                                                           xrtol, n_shot, cap, _doubles(buf), out,
                                                           counts))
    k, trials, marched, at, *read = counts
    log = buf[:LOG_ROW * trials].reshape(trials, LOG_ROW).tolist()
    if status == NO_CONVERGENCE:
        exc = _ERRORS[status](out[0])
        exc.log = log
        raise exc
    if status:
        _raise(status, out[0], shot.callback)
    record = None if k < 0 else log[k][1:]
    shot_read = _shot_read(buf[at:], n_shot, read[0], out[1], *read[1:]) if n_shot else None
    return Solved(out[0], record, trials, bool(marched), shot_read, log)


def hypot(x, y):
    """The port of ``math.hypot`` the kernel starts each shot with."""
    return load().pspect_hypot(x, y)


def apply_w(rhs: Rhs, r, u, callback=None):
    """w(r, u) of rhs (:func:`rhs`; callback its :class:`Callback`, if any)
    on the float64 arrays r and u of one shape: the bits the march computes,
    or what the march raises at the first point it raises at."""
    r, u = (np.array(x, dtype=np.float64, order="C") for x in (r, u))  # writable copies
    out = np.empty_like(u)
    status = load().pspect_apply_w(rhs, _doubles(r), _doubles(u), u.size, _doubles(out))
    if status:
        _raise(status, math.nan, callback)
    return out


def weight(m, r):
    """m(r) of the ``Weight`` m on the array r, of any shape, as the march
    reads it: the LINEAR w at lam = 1, exponent 1 and u = 1, 1.0 * m(r) *
    pow(1.0, 1.0), is m(r) to the bit."""
    return apply_w(rhs(2.0, 1, m, 1.0, LINEAR, 1.0), r, np.ones(np.shape(r)))
