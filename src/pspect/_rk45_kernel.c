/* The compiled shot of pspect.radial_ivp for the radial problems: the start
 * at the origin, the step loop of pspect._rk45.integrate, the post-pass of
 * radial_ivp.shoot over a finished shot, the whole of radial_ivp.probe, and
 * Brent's method over probes.  Entry points:
 *
 *   pspect_shoot    one shot: the start, the march to r = 1 and pspect_scan
 *   pspect_scan     the post-pass: samples, sup |u|, sup |u'|, u(1) and the
 *                   zeros of u the tail filter keeps
 *   pspect_reduce   a finished shot reduced to a probe (D, Z, sup |u|)
 *   pspect_probe    one probe: the start, the march, then pspect_reduce
 *   pspect_solve    the root of the miss D in lam or u(0), and the shot there:
 *                   one call per solve
 *   pspect_apply_w  w(r, u) of any family on arrays, for the fixed-point residual
 *                   and m(r) (the LINEAR w at lam = e = u = 1, for Weight.__call__)
 *
 * and pspect_hypot, the port of math.hypot the start takes, for its test, with
 * pspect_follow, which sets the NaN and the subnormal branch it follows.
 * pspect_shoot, pspect_probe and pspect_solve each take one struct Shot.
 *
 * The march (march, then dp45) runs the Dormand-Prince 5(4) loop of
 * _rk45.integrate on the first-order system of the radial equation,
 *
 *     u' = _sgnpow(v / r^(N-1), 1 / (p - 1)),   v' = -r^(N-1) w(r, u),
 *
 * with w written into it for the built-in forms (struct Rhs, family):
 *
 *     LINEAR     w = mu m(r) _sgnpow(u, p - 1)               (LinearRHS), also
 *                w = gamma m(r) F(u), F = Nonlinearity.phi   (NonlinearRHS)
 *     RATIONAL   w = gamma m(r) F(u), F = Nonlinearity.rational
 *     PERTURBED  w = mu m(r) _sgnpow(u, p - 1) + c m(r) _sgnpow(u, ge)  (PerturbedRHS)
 *     CALLBACK   w = cb(lam, m(r), r, u), any other right-hand side, computed
 *                in Python by the w of its own make, passed the shot's lam
 *                and the kernel's m(r)
 *
 * F and the perturbation use the exponents their Python objects captured
 * (e; ge = p - 1 + delta), which need not be the problem's p - 1.  The
 * family is read once per shot: the step loop is inlined once per family.
 *
 * Every floating-point operation is the one the Python reference
 * (tests/reference.py: the Python start and _rk45.integrate, then the numpy
 * post-pass) performs, in the same order, so both give the same bits:
 *   - sums run left to right, as Python evaluates them; the build flag
 *     -ffp-contract=off keeps the compiler from fusing a multiply-add;
 *   - every x ** y is a libm pow call, as in CPython's float_pow; the build
 *     flag -fno-builtin-pow keeps pow(x, 2.0) from being folded into x * x,
 *     which differs from libm's pow(x, 2.0) in the last bit on some x (fabs,
 *     copysign, sqrt, memcpy and memmove stay builtins: instructions with the
 *     bits of the libm calls);
 *   - math.copysign is copysign, and each family keeps its own u == 0.0
 *     test;
 *   - max and min keep their first argument on ties and NaN, as Python's do.
 * Where the reference raises, the kernel stops with the status of that
 * error (PSPECT_OVERFLOW and after), and the caller raises it: the first
 * error of a step wins, as Python stops at it.  A power of an infinite base
 * is inf without an error, as in Python.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -fno-builtin-pow (see _kernel.py).
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* the status of a call: how its march ended, or what the reference raises */
enum {
    PSPECT_END = 0,           /* reached t_end */
    PSPECT_BLOWUP = 1,        /* |u| reached the blow-up limit */
    PSPECT_UNDERFLOW = 2,     /* step size fell below h_min (IntegrationError) */
    PSPECT_FULL = 3,          /* more accepted steps than the buffers hold */
    PSPECT_OVERFLOW = 4,      /* OverflowError: a power of finite values overflows */
    PSPECT_DIV_ZERO = 5,      /* ZeroDivisionError: a division by zero */
    PSPECT_ZERO_POW = 6,      /* ZeroDivisionError: 0.0 to a negative power */
    PSPECT_RAISED = 7,        /* the callback of a CALLBACK right-hand side raised */
    PSPECT_ALPHA_ZERO = 8,    /* PreconditionError: a shot from u(0) = 0 */
    PSPECT_NAN_END = 9,       /* ValueError of brentq: f is NaN at an end */
    PSPECT_SAME_SIGN = 10,    /* ValueError of brentq: no sign change */
    PSPECT_NAN_AT = 11,       /* ValueError of brentq: f is NaN at x */
    PSPECT_NO_CONVERGENCE = 12 /* RuntimeError of brentq */
};

/* Dormand-Prince coefficients, as _rk45 spells them */
#define C2 (1.0 / 5.0)
#define C3 (3.0 / 10.0)
#define C4 (4.0 / 5.0)
#define C5 (8.0 / 9.0)
#define A21 (1.0 / 5.0)
#define A31 (3.0 / 40.0)
#define A32 (9.0 / 40.0)
#define A41 (44.0 / 45.0)
#define A42 (-56.0 / 15.0)
#define A43 (32.0 / 9.0)
#define A51 (19372.0 / 6561.0)
#define A52 (-25360.0 / 2187.0)
#define A53 (64448.0 / 6561.0)
#define A54 (-212.0 / 729.0)
#define A61 (9017.0 / 3168.0)
#define A62 (-355.0 / 33.0)
#define A63 (46732.0 / 5247.0)
#define A64 (49.0 / 176.0)
#define A65 (-5103.0 / 18656.0)
#define B1 (35.0 / 384.0)
#define B3 (500.0 / 1113.0)
#define B4 (125.0 / 192.0)
#define B5 (-2187.0 / 6784.0)
#define B6 (11.0 / 84.0)
#define E1 (71.0 / 57600.0)
#define E3 (-71.0 / 16695.0)
#define E4 (71.0 / 1920.0)
#define E5 (-17253.0 / 339200.0)
#define E6 (22.0 / 525.0)
#define E7 (-1.0 / 40.0)
#define D21 (-8048581381.0 / 2820520608.0)
#define D23 (131558114200.0 / 32700410799.0)
#define D24 (-1754552775.0 / 470086768.0)
#define D25 (127303824393.0 / 49829197408.0)
#define D26 (-282668133.0 / 205662961.0)
#define D27 (40617522.0 / 29380423.0)
#define D31 (8663915743.0 / 2820520608.0)
#define D33 (-68118460800.0 / 10900136933.0)
#define D34 (14199869525.0 / 1410260304.0)
#define D35 (-318862633887.0 / 49829197408.0)
#define D36 (2019193451.0 / 616988883.0)
#define D37 (-110615467.0 / 29380423.0)
#define D41 (-12715105075.0 / 11282082432.0)
#define D43 (87487479700.0 / 32700410799.0)
#define D44 (-10690763975.0 / 1880347072.0)
#define D45 (701980252875.0 / 199316789632.0)
#define D46 (-1453857185.0 / 822651844.0)
#define D47 (69997945.0 / 29380423.0)

#define SAFETY 0.9
#define MIN_FACTOR 0.2
#define MAX_FACTOR 10.0

enum { LINEAR = 0, RATIONAL = 1, PERTURBED = 2, CALLBACK = 3 }; /* Rhs.family */

/* w(lam, m(r), r, u) of a CALLBACK right-hand side */
typedef double (*callback)(double lam, double m, double r, double u);

/* the shot's w(r, u); _kernel.Rhs builds it */
typedef struct {
    int64_t family, n_dim, n_pieces;
    const double *bp;   /* n_pieces + 1 breakpoints */
    const int64_t *off; /* piece i: coefficients c[off[i]] .. c[off[i + 1] - 1] */
    const double *c;
    double lam;         /* mu or gamma */
    double e;           /* exponent of F: p - 1 for LinearRHS and PERTURBED */
    double e_inv;       /* 1 / (p - 1) of the system */
    double f0, finf, q; /* RATIONAL */
    double gc, ge;      /* PERTURBED: c and p - 1 + delta of the Perturbation */
    callback cb;        /* CALLBACK: w, which sets *raised where it raises */
    const int *raised;
    int bad;            /* the status of the first error Python would raise */
} Rhs;

/* one shot from u(0) = alpha to r = 1 (radial_ivp._shot builds it): p_conj
   is p / (p - 1), eps the start radius, the march stops where |u| reaches
   blowup_limit, and the shot is read on a grid of n_samples uniform points
   united with its nodes */
typedef struct {
    Rhs rhs;
    double alpha, p_conj, eps, rtol, atol_u, atol_v, blowup_limit;
    int64_t n_samples;
} Shot;

#define INLINE static inline __attribute__((always_inline))

static double py_max(double a, double b) { return b > a ? b : a; }

static double py_min(double a, double b) { return b < a ? b : a; }

/* *bad keeps the first error: Python stops there */
static void fail(int *bad, int status)
{
    if (!*bad)
        *bad = status;
}

/* x ** y of CPython's float_pow: an infinite power of finite x and y
   raises, and an infinite x or y does not */
static double py_pow(int *bad, double x, double y)
{
    double z = pow(x, y);
    if (isinf(z) && isfinite(x) && isfinite(y))
        fail(bad, x == 0.0 ? PSPECT_ZERO_POW : PSPECT_OVERFLOW);
    return z;
}

static double py_div(int *bad, double a, double b)
{
    if (b == 0.0)
        fail(bad, PSPECT_DIV_ZERO);
    return a / b;
}

/* radial_ivp._sgnpow */
static double sgnpow(int *bad, double x, double e)
{
    if (x > 0.0)
        return py_pow(bad, x, e);
    if (x < 0.0)
        return -py_pow(bad, -x, e);
    return 0.0;
}

/* weights._poly_eval */
static double horner(const double *c, int64_t n, double t)
{
    double acc = 0.0;
    for (int64_t k = n - 1; k >= 0; k--)
        acc = acc * t + c[k];
    return acc;
}

/* m(r), pspect's one evaluator of it (Weight.__call__ reads it through
   pspect_apply_w): bisect_right over the breakpoints, clamped, then horner */
static double weight(const Rhs *R, double r)
{
    int64_t lo = 0, hi = R->n_pieces + 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (r < R->bp[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t i = lo - 1;
    if (i < 0)
        i = 0;
    else if (i >= R->n_pieces)
        i = R->n_pieces - 1;
    return horner(R->c + R->off[i], R->off[i + 1] - R->off[i], r - R->bp[i]);
}

/* nodal.Nonlinearity.rational, finite where f0 + finf |u|^q overflows */
static double rational(Rhs *R, double u)
{
    if (u == 0.0)
        return 0.0;
    double au = fabs(u);
    double auq = py_pow(&R->bad, au, R->q); /* Python computes au ** q twice, to these bits */
    double num = R->f0 + R->finf * auq; /* 1 + auq >= 1: no division by zero */
    double ratio = isinf(num) ? R->finf + (R->f0 - R->finf) / (1.0 + auq) : num / (1.0 + auq);
    return copysign(py_pow(&R->bad, au, R->e) * ratio, u);
}

/* w(r, u) of the family with m(r) = mval; family is a constant where the
   loop is inlined */
INLINE double w_of(Rhs *R, int family, double mval, double u)
{
    switch (family) {
    case LINEAR:
        return R->lam * mval * sgnpow(&R->bad, u, R->e);
    case RATIONAL:
        return R->lam * mval * rational(R, u);
    default:
        return R->lam * mval * sgnpow(&R->bad, u, R->e)
               + R->gc * mval * sgnpow(&R->bad, u, R->ge); /* + nodal.Perturbation */
    }
}

/* w(r, u); a CALLBACK w is not called after an error, where Python stopped */
INLINE double w(Rhs *R, int family, double r, double u)
{
    double mval = weight(R, r);
    if (family != CALLBACK)
        return w_of(R, family, mval, u);
    if (R->bad)
        return NAN;
    double x = R->cb(R->lam, mval, r, u);
    if (*R->raised)
        R->bad = PSPECT_RAISED;
    return x;
}

/* the first-order system (tests/reference.py's system) */
INLINE void rhs(Rhs *R, int family, double r, double u, double v, double *du, double *dv)
{
    if (R->n_dim == 1) {
        *du = sgnpow(&R->bad, v, R->e_inv);
        *dv = -w(R, family, r, u);
    } else if (R->n_dim == 2) {
        *du = sgnpow(&R->bad, py_div(&R->bad, v, r), R->e_inv);
        *dv = -r * w(R, family, r, u);
    } else {
        double rn = py_pow(&R->bad, r, (double)(R->n_dim - 1));
        *du = sgnpow(&R->bad, py_div(&R->bad, v, rn), R->e_inv);
        *dv = -rn * w(R, family, r, u);
    }
}

/* The loop of _rk45.integrate after its initial step, to r = 1, with the w
   of *R and the tolerances and guard of *S, from the state t, u, v,
   f(t, u, v), h; *t_stop receives the t where it stopped.  buf holds
   12 cap + 1 doubles.  On return, unless the status is PSPECT_FULL, its first 12 n + 1
   hold the n accepted steps as _rk45.DenseOutput reads them: the nodes
   ts[0..n] (ts[n] is the final t), then u0, v0 of each step, the step sizes,
   and the eight theta-polynomial coefficients of each step.  steps receives
   the accepted and the rejected step counts. */
INLINE int dp45(Rhs *R, int family, const Shot *S, const double *state, double h_min,
                int64_t cap, double *buf, double *t_stop, int64_t *steps)
{
    double *ts = buf, *y0s = buf + cap + 1, *hs = buf + 3 * cap + 1, *coef = buf + 4 * cap + 1;
    double t = state[0], u = state[1], v = state[2];
    double fu = state[3], fv = state[4], h = state[5];
    double rtol = S->rtol, atol_u = S->atol_u, atol_v = S->atol_v, t_end = 1.0;
    int64_t n = 0, rejected = 0;
    int status = PSPECT_END;

    while (t < t_end) {
        if (h < h_min) {
            status = PSPECT_UNDERFLOW;
            break;
        }
        if (t + h > t_end)
            h = t_end - t;

        double k1u = fu, k1v = fv, k2u, k2v, k3u, k3v, k4u, k4v, k5u, k5v;
        double k6u, k6v, k7u, k7v;
        rhs(R, family, t + C2 * h, u + h * A21 * k1u, v + h * A21 * k1v, &k2u, &k2v);
        rhs(R, family, t + C3 * h,
            u + h * (A31 * k1u + A32 * k2u),
            v + h * (A31 * k1v + A32 * k2v), &k3u, &k3v);
        rhs(R, family, t + C4 * h,
            u + h * (A41 * k1u + A42 * k2u + A43 * k3u),
            v + h * (A41 * k1v + A42 * k2v + A43 * k3v), &k4u, &k4v);
        rhs(R, family, t + C5 * h,
            u + h * (A51 * k1u + A52 * k2u + A53 * k3u + A54 * k4u),
            v + h * (A51 * k1v + A52 * k2v + A53 * k3v + A54 * k4v), &k5u, &k5v);
        rhs(R, family, t + h,
            u + h * (A61 * k1u + A62 * k2u + A63 * k3u + A64 * k4u + A65 * k5u),
            v + h * (A61 * k1v + A62 * k2v + A63 * k3v + A64 * k4v + A65 * k5v),
            &k6u, &k6v);
        double u1 = u + h * (B1 * k1u + B3 * k3u + B4 * k4u + B5 * k5u + B6 * k6u);
        double v1 = v + h * (B1 * k1v + B3 * k3v + B4 * k4v + B5 * k5v + B6 * k6v);
        rhs(R, family, t + h, u1, v1, &k7u, &k7v);

        double err_u = h * (E1 * k1u + E3 * k3u + E4 * k4u + E5 * k5u + E6 * k6u + E7 * k7u);
        double err_v = h * (E1 * k1v + E3 * k3v + E4 * k4v + E5 * k5v + E6 * k6v + E7 * k7v);
        double scale_u = atol_u + rtol * py_max(fabs(u), fabs(u1));
        double scale_v = atol_v + rtol * py_max(fabs(v), fabs(v1));
        /* float_pow squares |x| for a negative x; the u term raises first */
        double norm_u = py_pow(&R->bad, fabs(py_div(&R->bad, err_u, scale_u)), 2.0);
        double norm = sqrt(0.5 * (norm_u
                                  + py_pow(&R->bad, fabs(py_div(&R->bad, err_v, scale_v)), 2.0)));
        if (R->bad) {
            status = R->bad;
            break;
        }

        /* norm ** (-0.2) is finite for the norm > 1 and norm != 0 it meets */
        if (norm > 1.0) {
            h *= py_max(MIN_FACTOR, SAFETY * pow(norm, -0.2));
            rejected++;
            continue;
        }

        if (n == cap) {
            status = PSPECT_FULL;
            break;
        }
        ts[n] = t;
        y0s[2 * n] = u;
        y0s[2 * n + 1] = v;
        hs[n] = h;
        double *c = coef + 8 * n;
        c[0] = h * (0.0 + k1u);
        c[1] = h * (0.0 + D21 * k1u + D23 * k3u + D24 * k4u + D25 * k5u + D26 * k6u + D27 * k7u);
        c[2] = h * (0.0 + D31 * k1u + D33 * k3u + D34 * k4u + D35 * k5u + D36 * k6u + D37 * k7u);
        c[3] = h * (0.0 + D41 * k1u + D43 * k3u + D44 * k4u + D45 * k5u + D46 * k6u + D47 * k7u);
        c[4] = h * (0.0 + k1v);
        c[5] = h * (0.0 + D21 * k1v + D23 * k3v + D24 * k4v + D25 * k5v + D26 * k6v + D27 * k7v);
        c[6] = h * (0.0 + D31 * k1v + D33 * k3v + D34 * k4v + D35 * k5v + D36 * k6v + D37 * k7v);
        c[7] = h * (0.0 + D41 * k1v + D43 * k3v + D44 * k4v + D45 * k5v + D46 * k6v + D47 * k7v);
        n++;

        t += h;
        u = u1;
        v = v1;
        if (fabs(u1) >= S->blowup_limit) {
            status = PSPECT_BLOWUP;
            break;
        }
        fu = k7u; /* FSAL */
        fv = k7v;
        h *= norm == 0.0 ? MAX_FACTOR : py_min(MAX_FACTOR, SAFETY * pow(norm, -0.2));
    }

    ts[n] = t;
    if (status != PSPECT_FULL) { /* the block of _rk45.DenseOutput, n steps long */
        memmove(buf + n + 1, y0s, 2 * n * sizeof(double));
        memmove(buf + 3 * n + 1, hs, n * sizeof(double));
        memmove(buf + 4 * n + 1, coef, 8 * n * sizeof(double));
    }
    *t_stop = t;
    steps[0] = n;
    steps[1] = rejected;
    return status;
}

/* ------------------------------------------------------------------------
 * pspect_scan: what radial_ivp.shoot reads off a finished shot, tail filter
 * included, computed as the reference (tests/reference.py's post_pass)
 * computes it, to the same bits.  Each power it takes is a libm pow call,
 * as Python's ** and numpy's scalar power are; none is a numpy array
 * power, which need not round as libm's pow does.
 */

#define ZERO_XTOL 1e-12        /* radial_ivp.ZERO_XTOL */
#define ZERO_RTOL 8.9e-16      /* radial_ivp.ZERO_RTOL */
#define BRENT_MAXITER 100      /* radial_ivp.brentq's maxiter */
#define BOUNDARY_MARGIN 1e-6   /* radial_ivp.BOUNDARY_MARGIN */
#define TAIL_NOISE_FACTOR 1e-7 /* kept_zeros' noise floor, a fraction of sup |u| */
#define TAIL_SLOPE_FACTOR 1e-3 /* kept_zeros' slope floor, a fraction of sup |u'| */
#define BLOWUP_MISS 1e12       /* radial_ivp.BLOWUP_MISS */

/* DenseOutput.__call__ on step i at t: theta = (t - ts[i]) / hs[i], then
   each quartic from its theta^4 coefficient down */
static void dense_at(const double *ts, const double *y0s, const double *hs,
                     const double *coef, int64_t i, double t, double *u, double *v)
{
    double th = (t - ts[i]) / hs[i];
    const double *c = coef + 8 * i;
    *u = y0s[2 * i] + (((c[3] * th + c[2]) * th + c[1]) * th + c[0]) * th;
    *v = y0s[2 * i + 1] + (((c[7] * th + c[6]) * th + c[5]) * th + c[4]) * th;
}

/* The step DenseOutput evaluates at t: searchsorted(ts[:n], t, side="right")
   - 1, clipped to [0, n - 1].  *j counts the nodes <= the t of the last call,
   so a run of ascending t walks the nodes once. */
static int64_t step_of(const double *ts, int64_t n, int64_t *j, double t)
{
    while (*j < n && ts[*j] <= t)
        (*j)++;
    return *j == 0 ? 0 : *j - 1;
}

/* numpy's linspace(start, stop, num)[i]: for num >= 2, i * step + start
   with step = (stop - start) / (num - 1), and the last point stop; for
   num = 1, 0 * (stop - start) + start.  (numpy takes another branch where
   step underflows to 0; a shot never gets there, as r_end - eps is at
   least one step of the march.) */
static double linspace_at(int64_t i, int64_t num, double start, double stop)
{
    if (num == 1)
        return (double)i * (stop - start) + start;
    if (i == num - 1)
        return stop;
    return (double)i * ((stop - start) / (double)(num - 1)) + start;
}

/* the reference's quartic_on_step: on the step q = (t0, h, y0, c0, c1, c2, c3),
   with the value yb at the bracket's right end b */
static double quartic_on_step(int *bad, double t, double b, double yb, const double *q)
{
    if (t == b)
        return yb;
    double th = py_div(bad, t - q[0], q[1]);
    return q[2] + th * (q[3] + th * (q[4] + th * (q[5] + th * q[6])));
}

/* A function Brent's method solves: 0 with its value at x in *fx, or the
   nonzero status that ends the solve, with the number it carries (the r of
   PSPECT_UNDERFLOW or the x of PSPECT_NAN_AT) in *fx. */
typedef int (*brent_fn)(void *ctx, double x, double *fx);

/* radial_ivp.brentq(f, a, b, xtol=xtol, rtol=rtol, fa=fa, fb=fb), step for
   step: the tuple swaps, min keeping its first argument on ties, and sign
   tests by copysign.  Returns 0 with the zero in *root, else the status of
   what the Python one raises (PSPECT_NAN_END, PSPECT_SAME_SIGN,
   PSPECT_DIV_ZERO, PSPECT_NAN_AT with the x in *root, or
   PSPECT_NO_CONVERGENCE), or the status f returns, with its number in
   *root. */
static int brentq(brent_fn f, void *ctx, double a, double b, double fa, double fb,
                  double xtol, double rtol, double *root)
{
    int bad = 0;
    double xpre = a, xcur = b, xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    double fpre = fa, fcur = fb;
    if (isnan(fpre) || isnan(fcur))
        return PSPECT_NAN_END;
    if (fpre == 0.0) {
        *root = xpre;
        return 0;
    }
    if (fcur == 0.0) {
        *root = xcur;
        return 0;
    }
    if (copysign(1.0, fpre) == copysign(1.0, fcur))
        return PSPECT_SAME_SIGN;
    for (int it = 0; it < BRENT_MAXITER; it++) {
        if (fpre != 0.0 && fcur != 0.0 && copysign(1.0, fpre) != copysign(1.0, fcur)) {
            xblk = xpre;
            fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) { /* xpre, xcur, xblk = xcur, xblk, xcur */
            xpre = xcur;
            xcur = xblk;
            xblk = xpre;
            fpre = fcur;
            fcur = fblk;
            fblk = fpre;
        }
        double delta = (xtol + rtol * fabs(xcur)) / 2;
        double sbis = (xblk - xcur) / 2;
        if (fcur == 0.0 || fabs(sbis) < delta) {
            *root = xcur;
            return 0;
        }
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk) { /* secant */
                stry = py_div(&bad, -fcur * (xcur - xpre), fcur - fpre);
            } else { /* inverse quadratic interpolation */
                double dpre = py_div(&bad, fpre - fcur, xpre - xcur);
                double dblk = py_div(&bad, fblk - fcur, xblk - xcur);
                stry = py_div(&bad, -fcur * (fblk * dblk - fpre * dpre),
                              dblk * dpre * (fblk - fpre));
            }
            if (bad)
                return bad;
            if (2 * fabs(stry) < py_min(fabs(spre), 3 * fabs(sbis) - delta)) {
                spre = scur;
                scur = stry;
            } else {
                spre = scur = sbis;
            }
        } else {
            spre = scur = sbis;
        }
        xpre = xcur;
        fpre = fcur;
        xcur += fabs(scur) > delta ? scur : (sbis > 0 ? delta : -delta);
        int status = f(ctx, xcur, &fcur);
        if (status) {
            *root = fcur;
            return status;
        }
        if (isnan(fcur)) {
            *root = xcur;
            return PSPECT_NAN_AT;
        }
    }
    return PSPECT_NO_CONVERGENCE;
}

/* u on one step, as the reference's locate_zeros hands it to brentq */
typedef struct {
    double b, yb;
    const double *q;
} Quartic;

static int quartic_fn(void *ctx, double t, double *y)
{
    const Quartic *Q = ctx;
    int bad = 0;
    *y = quartic_on_step(&bad, t, Q->b, Q->yb, Q->q);
    return bad;
}

/* the zero of u in [a, b] on the step q, with u(b) = yb, as locate_zeros
   refines it; else the status of what the Python refinement raises, as
   brentq returns it */
static int refine_zero(double a, double b, double yb, const double *q, double *root)
{
    Quartic Q = {b, yb, q};
    double ya;
    int status = quartic_fn(&Q, a, &ya);
    return status ? status : brentq(quartic_fn, &Q, a, b, ya, yb, ZERO_XTOL, ZERO_RTOL, root);
}

/* The post-pass of radial_ivp.shoot over a shot of n >= 1 steps held in
   block as dp45 leaves it, with n_samples >= 0 and cap =
   n_samples + n + 1:
     samples[0..cap)       the grid union1d(linspace(eps, r_end, n_samples), ts)
     samples[cap..2 cap)   u on the grid
     samples[2 cap..3 cap) v on the grid
     scratch[0..cap)       max |u| over the grid from each point on (NaN if
                           any is NaN, as np.max)
     scratch[cap..cap + 2) u(1) and v(1); scratch[cap + 2] is kept for the
                           sup |u'| of pspect_scan
     then the zeros of u, as (r, u'(r)) pairs (at most 2n): each sign change
     of u over the nodes ts and midpoints 0.5 (ts[i] + ts[i + 1]) up to
     r_end, equal neighbours once, taken where u[k] == 0 or u[k] u[k + 1] < 0,
     refined on the quartic of its left node's step as locate_zeros refines
     it, and dropped within 10 ZERO_XTOL of the zero before it.
   counts receives the grid length and the number of zeros.  Returns 0, or
   the status of what locate_zeros raises, with the x of PSPECT_NAN_AT in
   scratch[cap]. */
static int read_shot(const double *block, int64_t n, double eps, double r_end,
                     int64_t n_samples, int64_t n_dim, double e_inv, double *samples, int64_t cap,
                     double *scratch, int64_t *counts)
{
    const double *ts = block, *y0s = block + n + 1, *hs = block + 3 * n + 1;
    const double *coef = block + 4 * n + 1;
    double *grid = samples, *u = samples + cap, *v = samples + 2 * cap;
    double *tail = scratch, *zeros = scratch + cap + 3;

    /* the grid: both ascending sequences merged, equal values once */
    int64_t g = 0, a = 0, b = 0, j = 0;
    while (a < n_samples || b <= n) {
        double x;
        if (b > n || (a < n_samples && linspace_at(a, n_samples, eps, r_end) <= ts[b]))
            x = linspace_at(a++, n_samples, eps, r_end);
        else
            x = ts[b++];
        if (g > 0 && x == grid[g - 1])
            continue;
        grid[g] = x;
        dense_at(ts, y0s, hs, coef, step_of(ts, n, &j, x), x, u + g, v + g);
        g++;
    }
    double m = 0.0;
    for (int64_t k = g - 1; k >= 0; k--) {
        double x = fabs(u[k]);
        if (k == g - 1 || x > m || isnan(x))
            m = x;
        tail[k] = m;
    }

    /* the nodes ts[0], mid 0, ts[1], ..., ts[n] ascend */
    int64_t nz = 0, ia = 0;
    double xa = 0.0, ua = 0.0;
    j = 0;
    for (int64_t s = 0; s <= 2 * n; s++) {
        double x = s % 2 == 0 ? ts[s / 2] : 0.5 * (ts[s / 2] + ts[s / 2 + 1]);
        if (!(x <= r_end))
            break;
        if (s > 0 && x == xa)
            continue;
        int64_t i = step_of(ts, n, &j, x);
        double ux, vx;
        dense_at(ts, y0s, hs, coef, i, x, &ux, &vx);
        if (s > 0 && (ua == 0.0 || (ua < 0.0 && ux > 0.0) || (ua > 0.0 && ux < 0.0))) {
            const double *c = coef + 8 * ia;
            const double qu[7] = {ts[ia], hs[ia], y0s[2 * ia], c[0], c[1], c[2], c[3]};
            const double qv[7] = {ts[ia], hs[ia], y0s[2 * ia + 1], c[4], c[5], c[6], c[7]};
            double rz = xa;
            int bad = ua != 0.0 ? refine_zero(xa, x, ux, qu, &rz) : 0;
            if (bad) {
                scratch[cap] = rz;
                return bad;
            }
            if (!(nz > 0 && fabs(rz - zeros[2 * nz - 2]) < 10 * ZERO_XTOL)) {
                double vz = quartic_on_step(&bad, rz, x, vx, qv);
                double rn = py_pow(&bad, py_max(rz, 1e-300), (double)(n_dim - 1));
                double up = sgnpow(&bad, py_div(&bad, vz, rn), e_inv);
                if (bad)
                    return bad;
                zeros[2 * nz] = rz;
                zeros[2 * nz + 1] = up;
                nz++;
            }
        }
        xa = x;
        ua = ux;
        ia = i;
    }

    j = 0;
    dense_at(ts, y0s, hs, coef, step_of(ts, n, &j, 1.0), 1.0, scratch + cap, scratch + cap + 1);
    counts[0] = g;
    counts[1] = nz;
    return 0;
}

/* sup |u'| over the grid of g points with v on it: pow(M, e_inv), M the
   largest |v_k| / rn_k with rn_k = pow(max(r_k, 1e-300), n_dim - 1) as
   locate_zeros takes it.  A NaN quotient makes M NaN, as np.max does, and
   a power that overflows is inf, with no error; the reference's
   scan_reference takes the same powers. */
static double sup_uprime(const double *grid, const double *v, int64_t g, int64_t n_dim,
                         double e_inv)
{
    double m = 0.0;
    for (int64_t k = 0; k < g; k++) {
        double x = fabs(v[k]) / pow(py_max(grid[k], 1e-300), (double)(n_dim - 1));
        if (k == 0 || x > m || isnan(x))
            m = x;
    }
    return pow(m, e_inv);
}

/* numpy's searchsorted(grid[:g], r, side="left"), NaN ordered last */
static int64_t search_left(const double *grid, int64_t g, double r)
{
    int64_t lo = 0, hi = g;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (grid[mid] < r || (r != r && grid[mid] == grid[mid]))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The tail filter, which every shot, probe and root shot runs: how many of
   the zeros read_shot left (with its samples of cap points, scratch and
   counts) a shot keeps, its trailing noise crossings dropped.

   An indefinite weight makes the terminal stretch of a near-eigenvalue
   shot non-oscillatory with an exponentially small true solution; the
   parameter sensitivity of that tail is exponential, so at the double-
   precision resolution of the eigenvalue the computed tail hovers at a
   noise floor and can flicker in sign.  A flicker crossing shows both
   signatures at once: |u| never rebounds above a small fraction of the
   sup-norm afterwards, and the slope at the crossing has collapsed
   relative to the shot's slope scale.  Genuine nodal zeros fail both
   tests by orders of magnitude.

   So trailing zeros are dropped while max |u| over the grid from the zero
   on (searchsorted side "left"; 0 past the grid) is below TAIL_NOISE_FACTOR
   sup |u| and |u'| at the zero below TAIL_SLOPE_FACTOR sup |u'|: *known,
   or, where known is NULL, computed only where a trailing zero lies under
   the noise floor.  Its reference: tests/reference.py's drop_noise_tail_zeros. */
static int64_t kept_zeros(const double *samples, int64_t cap, const double *scratch,
                          const int64_t *counts, int64_t n_dim, double e_inv,
                          const double *known)
{
    int64_t g = counts[0], nz = counts[1], kept = nz;
    const double *tail = scratch, *zeros = scratch + cap + 3, *v = samples + 2 * cap;
    double noise = TAIL_NOISE_FACTOR * tail[0], slope = 0.0;
    for (; kept > 0; kept--) {
        const double *zero = zeros + 2 * (kept - 1);
        int64_t idx = search_left(samples, g, zero[0]);
        if (!((idx < g ? tail[idx] : 0.0) < noise))
            break;
        if (kept == nz) /* the first test that reads sup |u'| */
            slope = TAIL_SLOPE_FACTOR * (known ? *known : sup_uprime(samples, v, g, n_dim, e_inv));
        if (!(fabs(zero[1]) < slope))
            break;
    }
    return kept;
}

/* read_shot, with sup |u'| in scratch[cap + 2], and counts[1] the number
   of zeros the tail filter keeps (kept_zeros) */
int pspect_scan(const double *block, int64_t n, double eps, double r_end, int64_t n_samples,
                int64_t n_dim, double e_inv, double *samples, int64_t cap, double *scratch,
                int64_t *counts)
{
    int status = read_shot(block, n, eps, r_end, n_samples, n_dim, e_inv, samples, cap, scratch,
                           counts);
    if (status)
        return status;
    scratch[cap + 2] = sup_uprime(samples, samples + 2 * cap, counts[0], n_dim, e_inv);
    counts[1] = kept_zeros(samples, cap, scratch, counts, n_dim, e_inv, scratch + cap + 2);
    return 0;
}

/* ------------------------------------------------------------------------
 * pspect_reduce and pspect_probe: radial_ivp.probe, a shot reduced to the
 * miss D, the interior zero count Z and sup |u|, without the trajectory;
 * pspect_shoot: radial_ivp.shoot.
 */

/* What radial_ivp.probe reads off a finished shot of n >= 1 steps in block:
   read_shot with n_samples >= 0 samples, then the tail filter (kept_zeros,
   which computes sup |u'| only where a trailing zero lies under the noise
   floor) and the count of interior zeros.  work holds 4 cap + 3 + 4 n
   doubles, cap = n_samples + n + 1, laid out as the samples and scratch of
   pspect_scan.  out receives u(1), u at r_end, sup |u| and the number Z of
   interior zeros.  Returns 0, or the status of read_shot, with its number
   in out[0]. */
int pspect_reduce(const double *block, int64_t n, double eps, double r_end, int64_t n_samples,
                  int64_t n_dim, double e_inv, double *work, double *out)
{
    int64_t cap = n_samples + n + 1, counts[2];
    double *scratch = work + 3 * cap;
    int status = read_shot(block, n, eps, r_end, n_samples, n_dim, e_inv, work, cap, scratch,
                           counts);
    if (status) {
        out[0] = scratch[cap];
        return status;
    }
    int64_t kept = kept_zeros(work, cap, scratch, counts, n_dim, e_inv, NULL), z = 0;
    for (int64_t k = 0; k < kept; k++)
        z += scratch[cap + 3 + 2 * k] < 1.0 - BOUNDARY_MARGIN;
    out[0] = scratch[cap];
    out[1] = work[cap + counts[0] - 1];
    out[2] = scratch[0];
    out[3] = (double)z;
    return 0;
}

/* math.hypot's NaN, and whether it scales a largest input below 2^-1024
   by DBL_MIN (Python 3.12 on) or divides by it (3.10 and 3.11): they differ
   between Python versions, and _kernel sets them to the running Python's
   at load */
static double hypot_nan = NAN;
static int hypot_rescales = 0;

void pspect_follow(double nan, int rescales)
{
    hypot_nan = nan;
    hypot_rescales = rescales;
}

/* CPython's math.hypot(x, y) (math_hypot, then vector_norm of
   Modules/mathmodule.c), to its bits: inf where either is infinite, else
   NaN where one is NaN, and the branch above for a largest input below
   2^-1024. */
double pspect_hypot(double x, double y)
{
    const double T27 = 134217729.0; /* ldexp(1.0, 27) + 1.0 */
    double vec[2] = {fabs(x), fabs(y)};
    double mx = 0.0;
    int found_nan = 0;
    for (int i = 0; i < 2; i++) {
        found_nan |= isnan(vec[i]);
        if (vec[i] > mx)
            mx = vec[i];
    }
    if (isinf(mx))
        return mx;
    if (found_nan)
        return hypot_nan;
    if (mx == 0.0)
        return mx;
    int max_e;
    frexp(mx, &max_e);
    if (max_e < -1023 && hypot_rescales) /* ldexp(1.0, -max_e) would overflow */
        return DBL_MIN * pspect_hypot(x / DBL_MIN, y / DBL_MIN);
    if (max_e < -1023) {
        double csum = 1.0, frac = 0.0;
        for (int i = 0; i < 2; i++) {
            double v = vec[i] / mx, oldcsum = csum;
            v = v * v;
            csum += v;
            frac += (oldcsum - csum) + v;
        }
        return mx * sqrt(csum - 1.0 + frac);
    }
    double scale = ldexp(1.0, -max_e);
    double csum = 1.0, frac1 = 0.0, frac2 = 0.0, frac3 = 0.0, oldcsum, t, hi, lo, v;
    for (int i = 0; i < 2; i++) {
        v = vec[i] * scale; /* lossless */
        t = v * T27;
        hi = t - (t - v);
        lo = v - hi;
        v = hi * hi;
        oldcsum = csum;
        csum += v;
        frac1 += (oldcsum - csum) + v;
        v = 2.0 * hi * lo;
        oldcsum = csum;
        csum += v;
        frac2 += (oldcsum - csum) + v;
        frac3 += lo * lo;
    }
    double h = sqrt(csum - 1.0 + (frac1 + frac2 + frac3));
    t = h * T27;
    hi = t - (t - h);
    lo = h - hi;
    v = -hi * hi;
    oldcsum = csum;
    csum += v;
    frac1 += (oldcsum - csum) + v;
    v = -2.0 * hi * lo;
    oldcsum = csum;
    csum += v;
    frac2 += (oldcsum - csum) + v;
    v = -lo * lo;
    oldcsum = csum;
    csum += v;
    frac3 += (oldcsum - csum) + v;
    v = csum - 1.0 + (frac1 + frac2 + frac3);
    return (h + v / (2.0 * h)) / scale;
}

/* The start of the reference (tests/reference.py's origin_startup) for the
   shot *S, then the start of _rk45.integrate with its _initial_step: the
   state (t, u, v, f(t, u, v), h) at t = eps the march starts from, and the
   smallest step.  w(0, alpha) is the family's w at r = 0, as in the loop.
   Returns 0, or the status of the first error Python would raise. */
static int startup(Rhs *R, const Shot *S, double *state, double *h_min)
{
    int *bad = &R->bad, family = (int)R->family;
    double alpha = S->alpha, p_conj = S->p_conj, eps = S->eps, t_end = 1.0, n = (double)R->n_dim;
    double w0 = w(R, family, 0.0, alpha);
    double u = alpha - sgnpow(bad, w0 / n, p_conj - 1.0) * py_pow(bad, eps, p_conj) / p_conj;
    double v = -w0 * py_pow(bad, eps, n) / n;

    double fu, fv, f1u, f1v;
    rhs(R, family, eps, u, v, &fu, &fv);
    double scale_u = S->atol_u + S->rtol * fabs(u);
    double scale_v = S->atol_v + S->rtol * fabs(v);
    double q = py_div(bad, u, scale_u);
    double d0 = pspect_hypot(q, py_div(bad, v, scale_v)) / sqrt(2.0);
    q = py_div(bad, fu, scale_u);
    double d1 = pspect_hypot(q, py_div(bad, fv, scale_v)) / sqrt(2.0);
    double h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    h0 = py_min(h0, t_end - eps);
    rhs(R, family, eps + h0, u + h0 * fu, v + h0 * fv, &f1u, &f1v);
    q = py_div(bad, f1u - fu, scale_u);
    double d2 = py_div(bad, pspect_hypot(q, py_div(bad, f1v - fv, scale_v)) / sqrt(2.0), h0);
    double h1 = d1 <= 1e-15 && d2 <= 1e-15 ? py_max(1e-6, h0 * 1e-3)
                                           : py_pow(bad, py_div(bad, 0.01, py_max(d1, d2)), 0.2);
    double h = py_min(py_min(100 * h0, h1), t_end - eps);

    const double start[6] = {eps, u, v, fu, fv, h};
    memcpy(state, start, sizeof start);
    *h_min = 16 * fabs(t_end - eps) * 2.3e-16 + 1e-300;
    return R->bad;
}

/* The march of the shot *S: startup, then dp45 to r = 1 with the family of
   its right-hand side, into buf (12 cap + 1 doubles).  *t receives the r
   where the march stopped and steps the accepted and the rejected steps.
   Returns the status of dp45, or of the first error Python would raise on
   the way (PSPECT_ALPHA_ZERO at alpha = 0). */
static int march(const Shot *S, int64_t cap, double *buf, double *t, int64_t *steps)
{
    Rhs R = S->rhs;
    R.bad = 0;
    double state[6], h_min;
    if (S->alpha == 0.0)
        return PSPECT_ALPHA_ZERO;
    int status = startup(&R, S, state, &h_min);
    if (status)
        return status;
#define LOOP(family) dp45(&R, family, S, state, h_min, cap, buf, t, steps)
    return R.family == LINEAR      ? LOOP(LINEAR)
           : R.family == RATIONAL  ? LOOP(RATIONAL)
           : R.family == PERTURBED ? LOOP(PERTURBED)
                                   : LOOP(CALLBACK);
#undef LOOP
}

/* The march of the shot *S that left its status, the block of its counts[0]
   accepted steps at the front of buf, and *t, read as radial_ivp.shoot reads
   it: pspect_scan over the block from eps to r = 1 or to where the shot blew
   up, with the samples and then the scratch after the block, each for a
   grid of at most n_samples + n + 1 points.  counts[2] and counts[3] receive
   the grid length and the number of zeros the tail filter keeps.  Returns
   status, or the status of the error the post-pass raises, with its number
   in *t. */
static int read_march(const Shot *S, int status, double *buf, double *t, int64_t *counts)
{
    int64_t n = counts[0], cap_s = S->n_samples + n + 1;
    double *samples = buf + 12 * n + 1, *scratch = samples + 3 * cap_s;
    int error = pspect_scan(buf, n, S->eps, status == PSPECT_BLOWUP ? *t : 1.0, S->n_samples,
                            S->rhs.n_dim, S->rhs.e_inv, samples, cap_s, scratch, counts + 2);
    if (error) {
        *t = scratch[cap_s];
        return error;
    }
    return status;
}

/* radial_ivp.shoot of the shot *S, to its bits: march, then read_march.
   buf holds 20 cap + 4 n_samples + 8 doubles, as for pspect_probe.  *t
   receives the r where the march stopped, and counts n, the rejected steps,
   the grid length and the number of zeros kept.  Returns the status of the
   march, or of the first error Python would raise on the way; *t then holds
   the number the status carries. */
int pspect_shoot(const Shot *S, int64_t cap, double *buf, double *t, int64_t *counts)
{
    int status = march(S, cap, buf, t, counts);
    if (status != PSPECT_END && status != PSPECT_BLOWUP)
        return status;
    return read_march(S, status, buf, t, counts);
}

/* pspect_probe, with the r where the march stopped in *t */
static int probe(const Shot *S, int64_t cap, double *buf, double *rec, double *t)
{
    double reading[4];
    int64_t steps[2];
    int status = march(S, cap, buf, t, steps);
    if (status != PSPECT_END && status != PSPECT_BLOWUP) {
        rec[0] = *t;
        return status;
    }
    int64_t n = steps[0];
    int blowup = status == PSPECT_BLOWUP;
    int error = pspect_reduce(buf, n, S->eps, blowup ? *t : 1.0, S->n_samples, S->rhs.n_dim,
                              S->rhs.e_inv, buf + 12 * n + 1, reading);
    if (error) {
        rec[0] = reading[0];
        return error;
    }
    const double out[6] = {blowup ? copysign(BLOWUP_MISS, reading[1]) : reading[0], reading[2],
                           reading[3], blowup, (double)n, (double)steps[1]};
    memcpy(rec, out, sizeof out);
    return status;
}

/* radial_ivp.probe of the shot *S, to its bits: march, then pspect_reduce
   over the block it leaves at the front of buf.  buf holds 12 cap + 1
   doubles for the march and then the work of pspect_reduce for a shot of
   cap steps (20 cap + 4 n_samples + 8 in all).  An END or BLOWUP shot
   fills rec: D (u(1), or BLOWUP_MISS signed by u where a shot that blew
   up stopped), sup |u|, Z, 1 for a blow-up, and the accepted and the
   rejected steps.  Returns the status of the march, or of the first error
   Python would raise on the way; rec[0] then holds the number the status
   carries (the r where the step size underflowed, the x of
   PSPECT_NAN_AT). */
int pspect_probe(const Shot *S, int64_t cap, double *buf, double *rec)
{
    double t = 0.0;
    return probe(S, cap, buf, rec, &t);
}

/* ------------------------------------------------------------------------
 * pspect_solve: the root of the miss D = u(1) in lam (gamma or mu) or in
 * alpha = u(0), by Brent's method over pspect_probe.
 */

#define LOG_ROW 7 /* a trial: x, then the rec of pspect_probe */
#define RING 3    /* the trials whose blocks a solve keeps, the last ones */

/* the shot of each trial, and x, the lam or alpha of the shot that each
   trial sets; trial i marches in ring slot i % RING, of slot doubles, and
   stops at r = stop[i % RING] */
typedef struct {
    Shot shot;
    double *x;
    int64_t cap, slot, n_log;
    double *ring, *log;
    double stop[RING];
} Solve;

static int trial(void *ctx, double x, double *d)
{
    Solve *S = ctx;
    double *row = S->log + LOG_ROW * S->n_log;
    int64_t i = S->n_log % RING;
    *S->x = x;
    int status = probe(&S->shot, S->cap, S->ring + i * S->slot, row + 1, S->stop + i);
    *d = row[1];
    if (status != PSPECT_END && status != PSPECT_BLOWUP)
        return status;
    row[0] = x;
    S->n_log++;
    return 0;
}

/* radial_ivp.brentq(lambda x: radial_ivp.probe(...).d, a, b, xtol=xtol,
   rtol=xrtol, fa=fa, fb=fb) with x the lam of the shot's right-hand side
   (in_alpha == 0) or its u(0) (in_alpha != 0), to the same bits: each trial
   is pspect_probe, whose D is the miss.  Then the shot at the root, as
   pspect_shoot shoots it with n_shot samples: read off the root's own trial
   where that is one of the last RING, else marched again (a root at a
   bracket end, or an older trial); with n_shot = 0, no shot at all.

   buf holds LOG_ROW BRENT_MAXITER doubles for the trial log and then RING
   slots of 20 cap + 4 max(n_samples, n_shot) + 8, one per trial as for
   pspect_probe.  Returns 0 with out[0] the root, out[1] the r where the
   root's shot stopped, and counts the index of the root's trial in the log
   (-1 where the root is a bracket end), the number of trials, 1 where the
   root was marched again, then, where n_shot > 0, the offset in buf of the
   root's shot (laid out as pspect_shoot leaves it), its status (PSPECT_END
   or PSPECT_BLOWUP) and the four counts of pspect_shoot; PSPECT_FULL where a march takes more
   than cap steps; else the status of what the Python solve raises, with
   its number in out[0].  The log holds, in order, each trial whose probe
   finished (x, then its rec), and counts[1] their number, also where the
   solve fails. */
int pspect_solve(const Shot *shot, int in_alpha, double a, double b, double fa, double fb,
                 double xtol, double xrtol, int64_t n_shot, int64_t cap, double *buf,
                 double *out, int64_t *counts)
{
    int64_t samples = shot->n_samples > n_shot ? shot->n_samples : n_shot;
    Solve S = {*shot, NULL, cap, 20 * cap + 4 * samples + 8, 0, buf + LOG_ROW * BRENT_MAXITER,
               buf, {0.0}};
    S.x = in_alpha ? &S.shot.alpha : &S.shot.rhs.lam;
    double root = NAN;
    int status = brentq(trial, &S, a, b, fa, fb, xtol, xrtol, &root);
    out[0] = root;
    counts[1] = S.n_log;
    if (status)
        return status;
    int64_t k = S.n_log - 1;
    while (k >= 0 && S.log[LOG_ROW * k] != root)
        k--;
    if (n_shot == 0) { /* no shot at the root */
        const int64_t head[3] = {k, S.n_log, 0};
        memcpy(counts, head, sizeof head);
        return 0;
    }

    Shot at = S.shot; /* the shot of the last trial, moved to the root */
    *(in_alpha ? &at.alpha : &at.rhs.lam) = root;
    at.n_samples = n_shot;
    int kept = k >= 0 && k >= S.n_log - RING;
    double *block = S.ring + (kept ? k % RING : 0) * S.slot;
    int64_t *shot_counts = counts + 5;
    if (kept) {
        const double *rec = S.log + LOG_ROW * k + 1;
        out[1] = S.stop[k % RING];
        shot_counts[0] = (int64_t)rec[4];
        shot_counts[1] = (int64_t)rec[5];
        status = read_march(&at, rec[3] != 0.0 ? PSPECT_BLOWUP : PSPECT_END, block, out + 1,
                            shot_counts);
    } else {
        status = pspect_shoot(&at, cap, block, out + 1, shot_counts);
    }
    if (status != PSPECT_END && status != PSPECT_BLOWUP) {
        out[0] = out[1];
        return status;
    }
    const int64_t head[5] = {k, S.n_log, !kept, block - buf, status};
    memcpy(counts, head, sizeof head);
    return 0;
}

/* ------------------------------------------------------------------------
 * pspect_apply_w: the w of a right-hand side, any family, at the n points
 * (r[k], u[k]), as the march computes it.  Returns 0, or the status of the
 * first error Python raises, where it stops.
 */
int pspect_apply_w(const Rhs *rhs, const double *r, const double *u, int64_t n, double *out)
{
    Rhs R = *rhs;
    R.bad = 0;
    for (int64_t k = 0; k < n && !R.bad; k++)
        out[k] = w(&R, R.family, r[k], u[k]);
    return R.bad;
}
