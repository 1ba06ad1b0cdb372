/* Compiled step loop of pspect._rk45.integrate for the radial problems, the
 * post-pass of pspect.radial_ivp.shoot over a finished shot, the two fused
 * into radial_ivp.probe, and Brent's method over probes.  Entry points:
 *
 *   pspect_dp45     the step loop of one shot
 *   pspect_scan     the post-pass: samples, sup |u|, u(1) and the zeros of u
 *   pspect_reduce   a finished shot reduced to a probe (D, Z, sup |u|)
 *   pspect_probe    pspect_dp45, then pspect_reduce: one call per probe
 *   pspect_solve    the root of the miss D in lam or u(0): one call per solve
 *   pspect_apply_f  F of the PHI and RATIONAL families on an array
 *
 * and pspect_hypot, the port of math.hypot the start of pspect_solve takes,
 * for its test.
 *
 * pspect_dp45 runs the Dormand-Prince 5(4) loop of _rk45.integrate with the
 * right-hand side radial_ivp._system(p, N, w) written into it, for the
 * built-in forms of w (struct Rhs, family):
 *
 *     LINEAR     w = mu m(r) _sgnpow(u, p - 1)               (LinearRHS)
 *     PHI        w = gamma m(r) F(u), F = Nonlinearity.phi   (NonlinearRHS)
 *     RATIONAL   w = gamma m(r) F(u), F = Nonlinearity.rational
 *     PERTURBED  w = mu m(r) _sgnpow(u, p - 1) + Perturbation (PerturbedRHS)
 *
 * F and the perturbation use the exponents their Python objects captured
 * (e; ge = p - 1 + delta), which need not be the problem's p - 1.  The
 * family is read once per shot: the step loop is inlined once per family.
 *
 * Every floating-point operation is the one the Python stepper performs,
 * in the same order, so both give the same bits:
 *   - sums run left to right, as Python evaluates them; the build flag
 *     -ffp-contract=off keeps the compiler from fusing a multiply-add;
 *   - every x ** y is a libm pow call, as in CPython's float_pow; the build
 *     flag -fno-builtin keeps pow(x, 2.0) from being folded into x * x;
 *   - math.copysign is copysign, and each family keeps its own u == 0.0
 *     test;
 *   - max and min keep their first argument on ties and NaN, as Python's do.
 * Where a Python float operation would raise (a power that overflows, a
 * division by zero), the kernel stops with PSPECT_RERUN and the caller
 * repeats the shot on the Python stepper, which raises or not exactly as it
 * always has.  A power that returns inf stops it too, although Python
 * returns inf for an infinite base: the Python stepper decides those shots.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -fno-builtin (see _kernel.py).
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum {
    PSPECT_END = 0,       /* reached t_end */
    PSPECT_BLOWUP = 1,    /* |u| reached the blow-up limit */
    PSPECT_UNDERFLOW = 2, /* step size fell below h_min at r = state[0] */
    PSPECT_FULL = 3,      /* more accepted steps than the buffers hold */
    PSPECT_RERUN = 4,     /* Python would raise; repeat on the Python stepper */
    PSPECT_TAIL = 5       /* pspect_reduce: the tail filter needs sup |u'| */
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

enum { LINEAR = 0, PHI = 1, RATIONAL = 2, PERTURBED = 3 }; /* Rhs.family */

/* the shot's w(r, u); _kernel.Rhs builds it */
typedef struct {
    int64_t family, n_dim, n_pieces;
    const double *bp;   /* n_pieces + 1 breakpoints */
    const int64_t *off; /* piece i: coefficients c[off[i]] .. c[off[i + 1] - 1] */
    const double *c;
    double lam;         /* mu or gamma */
    double e;           /* exponent of F: p - 1 for LINEAR and PERTURBED */
    double e_inv;       /* 1 / (p - 1) of the system */
    double f0, finf, q; /* RATIONAL */
    double gc, ge;      /* PERTURBED: c and p - 1 + delta of the Perturbation */
    int bad;            /* set where Python would raise */
} Rhs;

#define INLINE static inline __attribute__((always_inline))

static double py_max(double a, double b) { return b > a ? b : a; }

static double py_min(double a, double b) { return b < a ? b : a; }

static double py_pow(int *bad, double x, double y)
{
    double z = pow(x, y);
    if (isinf(z))
        *bad = 1; /* OverflowError for a finite x */
    return z;
}

static double py_div(int *bad, double a, double b)
{
    if (b == 0.0)
        *bad = 1; /* ZeroDivisionError */
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

/* Weight.scalar_fn(): its specialised forms for one piece of degree <= 3,
   else Weight.eval_scalar (bisect_right over the breakpoints, clamped) */
static double weight(const Rhs *R, double r)
{
    const double *c = R->c;
    if (R->n_pieces == 1) {
        switch (R->off[1]) {
        case 1:
            return c[0];
        case 2:
            return c[0] + c[1] * r;
        case 3:
            return c[0] + r * (c[1] + r * c[2]);
        case 4:
            return c[0] + r * (c[1] + r * (c[2] + r * c[3]));
        default:
            return horner(c, R->off[1], r);
        }
    }
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
    return horner(c + R->off[i], R->off[i + 1] - R->off[i], r - R->bp[i]);
}

/* nodal.Nonlinearity.phi */
static double phi(Rhs *R, double u)
{
    if (u == 0.0)
        return 0.0;
    return copysign(py_pow(&R->bad, fabs(u), R->e), u);
}

/* nodal.Nonlinearity.rational */
static double rational(Rhs *R, double u)
{
    if (u == 0.0)
        return 0.0;
    double au = fabs(u);
    double auq = py_pow(&R->bad, au, R->q); /* Python computes au ** q twice, to these bits */
    double ratio = py_div(&R->bad, R->f0 + R->finf * auq, 1.0 + auq);
    return copysign(py_pow(&R->bad, au, R->e) * ratio, u);
}

/* nodal.Perturbation.__call__ */
static double perturbation(Rhs *R, double mval, double u)
{
    if (u == 0.0)
        return 0.0;
    return R->gc * mval * copysign(py_pow(&R->bad, fabs(u), R->ge), u);
}

/* w(r, u) of the family with m(r) = mval; family is a constant where the
   loop is inlined */
INLINE double w_of(Rhs *R, int family, double mval, double u)
{
    switch (family) {
    case LINEAR:
        return R->lam * mval * sgnpow(&R->bad, u, R->e);
    case PHI:
        return R->lam * mval * phi(R, u);
    case RATIONAL:
        return R->lam * mval * rational(R, u);
    default:
        return R->lam * mval * sgnpow(&R->bad, u, R->e) + perturbation(R, mval, u);
    }
}

INLINE double w(Rhs *R, int family, double r, double u)
{
    return w_of(R, family, weight(R, r), u);
}

/* radial_ivp._system */
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

/* The loop of _rk45.integrate after its initial step; see pspect_dp45. */
INLINE int dp45(Rhs *R, int family, double *state, double t_end, double h_min,
                double rtol, double atol_u, double atol_v, int has_limit,
                double blowup_limit, int64_t cap, double *buf, int64_t *steps)
{
    double *ts = buf, *y0s = buf + cap + 1, *hs = buf + 3 * cap + 1, *coef = buf + 4 * cap + 1;
    double t = state[0], u = state[1], v = state[2];
    double fu = state[3], fv = state[4], h = state[5];
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
        /* float_pow squares |x| for a negative x */
        double norm = sqrt(0.5 * (py_pow(&R->bad, fabs(py_div(&R->bad, err_u, scale_u)), 2.0)
                                  + py_pow(&R->bad, fabs(py_div(&R->bad, err_v, scale_v)), 2.0)));
        if (R->bad) {
            status = PSPECT_RERUN;
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
        if (has_limit && fabs(u1) >= blowup_limit) {
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
    state[0] = t;
    state[1] = u;
    state[2] = v;
    steps[0] = n;
    steps[1] = rejected;
    return status;
}

/* The loop of _rk45.integrate after its initial step, with the w of *rhs.
   state holds t, u, v, f(t, u, v) and h on entry, and t, u, v on return.
   buf holds 12 cap + 1 doubles.  On return, unless the status is
   PSPECT_FULL, its first 12 n + 1 hold the n accepted steps as
   _rk45.DenseOutput reads them: the nodes ts[0..n] (ts[n] is the final t),
   then u0, v0 of each step, the step sizes, and the eight theta-polynomial
   coefficients of each step.  steps receives the accepted and the rejected
   step counts. */
int pspect_dp45(const Rhs *rhs, double *state, double t_end, double h_min,
                double rtol, double atol_u, double atol_v, int has_limit,
                double blowup_limit, int64_t cap, double *buf, int64_t *steps)
{
    Rhs R = *rhs;
    R.bad = 0;
#define LOOP(family) dp45(&R, family, state, t_end, h_min, rtol, atol_u, atol_v, \
                          has_limit, blowup_limit, cap, buf, steps)
    switch (R.family) {
    case LINEAR:
        return LOOP(LINEAR);
    case PHI:
        return LOOP(PHI);
    case RATIONAL:
        return LOOP(RATIONAL);
    default:
        return LOOP(PERTURBED);
    }
#undef LOOP
}

/* ------------------------------------------------------------------------
 * pspect_scan: what radial_ivp.shoot reads off a finished shot, whichever
 * loop ran it, computed as its references (radial_ivp._scan_reference in
 * numpy, then radial_ivp._locate_zeros) compute it, to the same bits.  The
 * only power it takes is the one of u' at a zero, which _locate_zeros takes
 * with Python's **; none of the numpy ones: numpy's array power need not
 * round as libm's pow does.
 */

#define ZERO_XTOL 1e-12        /* radial_ivp.ZERO_XTOL */
#define ZERO_RTOL 8.9e-16      /* the rtol of _locate_zeros' brentq */
#define BRENT_MAXITER 100      /* radial_ivp.brentq's maxiter */
#define BOUNDARY_MARGIN 1e-6   /* radial_ivp.BOUNDARY_MARGIN */
#define TAIL_NOISE_FACTOR 1e-7 /* radial_ivp.TAIL_NOISE_FACTOR */

/* DenseOutput.__call__ on step i at t: theta = (t - ts[i]) / hs[i], then
   each quartic from its theta^4 coefficient down */
static void dense_at(const double *ts, const double *y0s, const double *hs,
                     const double *coef, int64_t i, double t, double *u, double *v)
{
    double th = (t - ts[i]) / hs[i];
    const double *c = coef + 8 * i;
    double au = c[3], av = c[7];
    au = au * th + c[2];
    av = av * th + c[6];
    au = au * th + c[1];
    av = av * th + c[5];
    au = au * th + c[0];
    av = av * th + c[4];
    *u = y0s[2 * i] + au * th;
    *v = y0s[2 * i + 1] + av * th;
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

/* numpy's linspace(start, stop, num)[i] for num >= 2: i * step + start with
   step = (stop - start) / (num - 1), and the last point stop.  (numpy takes
   another branch where step underflows to 0; a shot never gets there, as
   r_end - eps is at least one step of the march.) */
static double linspace_at(int64_t i, int64_t num, double start, double stop)
{
    if (i == num - 1)
        return stop;
    return (double)i * ((stop - start) / (double)(num - 1)) + start;
}

/* radial_ivp._quartic_on_step: on the step q = (t0, h, y0, c0, c1, c2, c3),
   with the value yb at the bracket's right end b */
static double quartic_on_step(int *bad, double t, double b, double yb, const double *q)
{
    if (t == b)
        return yb;
    double th = py_div(bad, t - q[0], q[1]);
    return q[2] + th * (q[3] + th * (q[4] + th * (q[5] + th * q[6])));
}

/* A function Brent's method solves: 0 with its value at x in *fx, or the
   nonzero status that ends the solve. */
typedef int (*brent_fn)(void *ctx, double x, double *fx);

/* radial_ivp.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter, fa=fa,
   fb=fb), step for step: the tuple swaps, min keeping its first argument on
   ties, and sign tests by copysign.  Returns 0 with the zero in *root, the
   status of f where f returns one, or PSPECT_RERUN where the Python one
   raises: a NaN value, no sign change, a division by zero or no
   convergence. */
static int brentq(brent_fn f, void *ctx, double a, double b, double fa, double fb,
                  double xtol, double rtol, int64_t maxiter, double *root)
{
    int bad = 0;
    double xpre = a, xcur = b, xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    double fpre = fa, fcur = fb;
    if (isnan(fpre) || isnan(fcur))
        return PSPECT_RERUN;
    if (fpre == 0.0) {
        *root = xpre;
        return 0;
    }
    if (fcur == 0.0) {
        *root = xcur;
        return 0;
    }
    if (copysign(1.0, fpre) == copysign(1.0, fcur))
        return PSPECT_RERUN;
    for (int64_t it = 0; it < maxiter; it++) {
        if (fpre != 0.0 && fcur != 0.0 && copysign(1.0, fpre) != copysign(1.0, fcur)) {
            xblk = xpre;
            fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) { /* xpre, xcur, xblk = xcur, xblk, xcur */
            double x = xcur, fx = fcur;
            xpre = x;
            xcur = xblk;
            xblk = x;
            fpre = fx;
            fcur = fblk;
            fblk = fx;
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
                return PSPECT_RERUN;
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
        if (status)
            return status;
        if (isnan(fcur))
            return PSPECT_RERUN;
    }
    return PSPECT_RERUN;
}

/* u on one step, as radial_ivp._locate_zeros hands it to brentq */
typedef struct {
    double b, yb;
    const double *q;
} Quartic;

static int quartic_fn(void *ctx, double t, double *y)
{
    const Quartic *Q = ctx;
    int bad = 0;
    *y = quartic_on_step(&bad, t, Q->b, Q->yb, Q->q);
    return bad ? PSPECT_RERUN : 0;
}

/* the zero of u in [a, b] on the step q, with u(b) = yb, as _locate_zeros
   refines it; nonzero where the Python refinement raises */
static int refine_zero(double a, double b, double yb, const double *q, double *root)
{
    Quartic Q = {b, yb, q};
    double ya;
    if (quartic_fn(&Q, a, &ya))
        return PSPECT_RERUN;
    return brentq(quartic_fn, &Q, a, b, ya, yb, ZERO_XTOL, ZERO_RTOL, BRENT_MAXITER, root);
}

/* The post-pass of radial_ivp.shoot over a shot of n >= 1 steps held in
   block as pspect_dp45 leaves it, with n_samples >= 2 and cap =
   n_samples + n + 1:
     samples[0..cap)       the grid union1d(linspace(eps, r_end, n_samples), ts)
     samples[cap..2 cap)   u on the grid
     samples[2 cap..3 cap) v on the grid
     scratch[0..cap)       max |u| over the grid from each point on (NaN if
                           any is NaN, as np.max)
     scratch[cap..cap + 2) u(1) and v(1)
     then the zeros of u, as (r, u'(r)) pairs (at most 2n): each sign change
     of u over the nodes ts and midpoints 0.5 (ts[i] + ts[i + 1]) up to
     r_end, equal neighbours once, taken where u[k] == 0 or u[k] u[k + 1] < 0,
     refined on the quartic of its left node's step as _locate_zeros refines
     it, and dropped within 10 ZERO_XTOL of the zero before it.
   counts receives the grid length and the number of zeros.  Returns 0, or
   PSPECT_RERUN where _locate_zeros would raise (the caller then reads the
   shot in Python, which raises). */
int pspect_scan(const double *block, int64_t n, double eps, double r_end, int64_t n_samples,
                int64_t n_dim, double e_inv, double *samples, int64_t cap, double *scratch,
                int64_t *counts)
{
    const double *ts = block, *y0s = block + n + 1, *hs = block + 3 * n + 1;
    const double *coef = block + 4 * n + 1;
    double *grid = samples, *u = samples + cap, *v = samples + 2 * cap;
    double *tail = scratch, *zeros = scratch + cap + 2;

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
        if (s > 0 && (ua == 0.0 || ua * ux < 0.0)) {
            const double *c = coef + 8 * ia;
            const double qu[7] = {ts[ia], hs[ia], y0s[2 * ia], c[0], c[1], c[2], c[3]};
            const double qv[7] = {ts[ia], hs[ia], y0s[2 * ia + 1], c[4], c[5], c[6], c[7]};
            double rz = xa;
            if (ua != 0.0 && refine_zero(xa, x, ux, qu, &rz))
                return PSPECT_RERUN;
            if (!(nz > 0 && fabs(rz - zeros[2 * nz - 2]) < 10 * ZERO_XTOL)) {
                int bad = 0;
                double vz = quartic_on_step(&bad, rz, x, vx, qv);
                double rn = py_pow(&bad, py_max(rz, 1e-300), (double)(n_dim - 1));
                double up = sgnpow(&bad, py_div(&bad, vz, rn), e_inv);
                if (bad)
                    return PSPECT_RERUN;
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

/* ------------------------------------------------------------------------
 * pspect_reduce and pspect_probe: radial_ivp.probe, a shot reduced to the
 * miss D, the interior zero count Z and sup |u|, without the trajectory.
 */

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

static int all_finite(const double *x, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        if (!isfinite(x[k]))
            return 0;
    return 1;
}

/* What radial_ivp.probe reads off a finished shot of n >= 1 steps in block
   (pspect_scan with n_samples >= 2 samples, then the tail filter of
   radial_ivp._drop_noise_tail_zeros and the count of interior zeros).  work
   holds 3 cap + cap + 2 + 4 n doubles, cap = n_samples + n + 1, laid out as
   the samples and scratch of pspect_scan.  out receives u(1), u at r_end and
   sup |u|; counts the number Z of interior zeros, the grid length and the
   number of zeros.

   The filter drops trailing zeros whose tail maximum is below
   TAIL_NOISE_FACTOR sup |u| and whose slope is small against sup |u'|, a
   power numpy takes.  When the trailing run below the noise floor holds no
   interior zero, Z does not depend on which of them the filter drops, and
   the call returns 0.  Else it returns PSPECT_TAIL, with Z unset, and the
   caller filters in Python from work.  It returns PSPECT_RERUN where
   pspect_scan does, and where the shot has no blow-up guard (guarded == 0)
   and a start value or coefficient of a step is not finite: Python raises
   there. */
int pspect_reduce(const double *block, int64_t n, double eps, double r_end, int64_t n_samples,
                  int64_t n_dim, double e_inv, int guarded, double *work, double *out,
                  int64_t *counts)
{
    /* radial_ivp._require_finite: the start values and coefficients */
    if (!guarded && !(all_finite(block + n + 1, 2 * n) && all_finite(block + 4 * n + 1, 8 * n)))
        return PSPECT_RERUN;
    int64_t cap = n_samples + n + 1, sc[2];
    double *scratch = work + 3 * cap;
    if (pspect_scan(block, n, eps, r_end, n_samples, n_dim, e_inv, work, cap, scratch, sc))
        return PSPECT_RERUN;
    int64_t g = sc[0], nz = sc[1];
    const double *grid = work, *tail = scratch, *zeros = scratch + cap + 2;
    double sup_u = tail[0];
    out[0] = scratch[cap];
    out[1] = work[cap + g - 1];
    out[2] = sup_u;
    counts[1] = g;
    counts[2] = nz;

    double noise = TAIL_NOISE_FACTOR * sup_u;
    int64_t kept = nz;
    while (kept > 0) {
        int64_t idx = search_left(grid, g, zeros[2 * kept - 2]);
        if (!((idx < g ? tail[idx] : 0.0) < noise))
            break;
        kept--;
    }
    int64_t z = 0;
    for (int64_t k = 0; k < nz; k++) {
        if (zeros[2 * k] < 1.0 - BOUNDARY_MARGIN) {
            if (k >= kept)
                return PSPECT_TAIL;
            z++;
        }
    }
    counts[0] = z;
    return 0;
}

/* pspect_dp45, then pspect_reduce over the block it leaves at the front of
   buf: buf holds 12 cap + 1 doubles for the march and then the work of
   pspect_reduce for a shot of cap steps (20 cap + 4 n_samples + 7 in all).
   Returns the status of the march; an END or BLOWUP shot is reduced, with
   out and counts[0..3) as pspect_reduce leaves them and counts[3] its
   return, and PSPECT_RERUN where pspect_reduce returns that. */
int pspect_probe(const Rhs *rhs, double *state, double t_end, double h_min, double rtol,
                 double atol_u, double atol_v, int has_limit, double blowup_limit,
                 int64_t cap, double *buf, int64_t *steps, double eps, int64_t n_samples,
                 double *out, int64_t *counts)
{
    int status = pspect_dp45(rhs, state, t_end, h_min, rtol, atol_u, atol_v, has_limit,
                             blowup_limit, cap, buf, steps);
    if (status != PSPECT_END && status != PSPECT_BLOWUP)
        return status;
    int64_t n = steps[0];
    double r_end = status == PSPECT_BLOWUP ? state[0] : t_end;
    int reduced = pspect_reduce(buf, n, eps, r_end, n_samples, rhs->n_dim, rhs->e_inv,
                                has_limit, buf + 12 * n + 1, out, counts);
    if (reduced == PSPECT_RERUN)
        return PSPECT_RERUN;
    counts[3] = reduced;
    return status;
}

/* ------------------------------------------------------------------------
 * pspect_solve: the root of the miss D = u(1) in lam (gamma or mu) or in
 * alpha = u(0), by Brent's method over pspect_probe, each trial started as
 * radial_ivp.probe starts it.
 */

/* CPython's math.hypot(x, y) (vector_norm of Modules/mathmodule.c), to its
   bits for x and y each zero or normal.  Returns 1 for a subnormal or
   non-finite input, where the ports are not held to agree. */
static int hypot2(double x, double y, double *out)
{
    const double T27 = 134217729.0; /* ldexp(1.0, 27) + 1.0 */
    double vec[2] = {fabs(x), fabs(y)};
    double mx = 0.0;
    for (int i = 0; i < 2; i++) {
        if (!isfinite(vec[i]) || (vec[i] != 0.0 && vec[i] < DBL_MIN))
            return 1;
        if (vec[i] > mx)
            mx = vec[i];
    }
    if (mx == 0.0) {
        *out = mx;
        return 0;
    }
    int max_e;
    frexp(mx, &max_e);
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
    *out = (h + v / (2.0 * h)) / scale;
    return 0;
}

/* radial_ivp.origin_startup (m(0) = m0, Weight.eval_scalar's), then
   _rk45.start with its _initial_step: the state (t, u, v, f(t, u, v), h) at
   t = eps the march starts from, and the smallest step.  Returns 1 where
   Python would raise or hypot2 hands its inputs back. */
static int startup(Rhs *R, double alpha, double m0, double p_conj, double eps, double t_end,
                   double rtol, double atol_u, double atol_v, double *state, double *h_min)
{
    int *bad = &R->bad, family = (int)R->family;
    double n = (double)R->n_dim;
    double w0 = w_of(R, family, m0, alpha);
    double u = alpha - sgnpow(bad, w0 / n, p_conj - 1.0) * py_pow(bad, eps, p_conj) / p_conj;
    double v = -w0 * py_pow(bad, eps, n) / n;

    double fu, fv, f1u, f1v, d0, d1, d2;
    rhs(R, family, eps, u, v, &fu, &fv);
    double scale_u = atol_u + rtol * fabs(u);
    double scale_v = atol_v + rtol * fabs(v);
    if (hypot2(py_div(bad, u, scale_u), py_div(bad, v, scale_v), &d0)
        || hypot2(py_div(bad, fu, scale_u), py_div(bad, fv, scale_v), &d1))
        return 1;
    d0 = d0 / sqrt(2.0);
    d1 = d1 / sqrt(2.0);
    double h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    h0 = py_min(h0, t_end - eps);
    rhs(R, family, eps + h0, u + h0 * fu, v + h0 * fv, &f1u, &f1v);
    if (hypot2(py_div(bad, f1u - fu, scale_u), py_div(bad, f1v - fv, scale_v), &d2))
        return 1;
    d2 = d2 / sqrt(2.0) / h0;
    double h1 = d1 <= 1e-15 && d2 <= 1e-15 ? py_max(1e-6, h0 * 1e-3)
                                           : py_pow(bad, 0.01 / py_max(d1, d2), 0.2);
    double h = py_min(py_min(100 * h0, h1), t_end - eps);

    state[0] = eps;
    state[1] = u;
    state[2] = v;
    state[3] = fu;
    state[4] = fv;
    state[5] = h;
    *h_min = 16 * fabs(t_end - eps) * 2.3e-16 + 1e-300;
    return R->bad;
}

/* the miss of one trial, as radial_ivp.probe computes it */
typedef struct {
    Rhs R;
    int in_alpha, has_limit;
    double alpha, m0, p_conj, eps, rtol, atol_u, atol_v, blowup_limit, blowup_miss;
    int64_t n_samples, cap, n_log;
    double *buf, *log;
} Solve;

#define LOG_ROW 7 /* x, d, sup |u|, Z (-1: left to the tail filter), blow-up, accepted, rejected */

static int trial(void *ctx, double x, double *d)
{
    Solve *S = ctx;
    double alpha = S->in_alpha ? x : S->alpha;
    if (!S->in_alpha)
        S->R.lam = x;
    S->R.bad = 0;
    double state[6], h_min, reading[3];
    int64_t steps[2], counts[4];
    if (alpha == 0.0 || startup(&S->R, alpha, S->m0, S->p_conj, S->eps, 1.0, S->rtol,
                                S->atol_u, S->atol_v, state, &h_min))
        return PSPECT_RERUN;
    int status = pspect_probe(&S->R, state, 1.0, h_min, S->rtol, S->atol_u, S->atol_v,
                              S->has_limit, S->blowup_limit, S->cap, S->buf, steps, S->eps,
                              S->n_samples, reading, counts);
    if (status == PSPECT_FULL)
        return PSPECT_FULL;
    if (status != PSPECT_END && status != PSPECT_BLOWUP)
        return PSPECT_RERUN; /* Python raises, or decides the shot itself */
    int blowup = status == PSPECT_BLOWUP;
    *d = blowup ? copysign(S->blowup_miss, reading[1]) : reading[0];
    double *row = S->log + LOG_ROW * S->n_log++;
    row[0] = x;
    row[1] = *d;
    row[2] = reading[2];
    row[3] = counts[3] == PSPECT_TAIL ? -1.0 : (double)counts[0];
    row[4] = blowup;
    row[5] = (double)steps[0];
    row[6] = (double)steps[1];
    return 0;
}

/* radial_ivp.brentq(lambda x: radial_ivp.probe(...).d, a, b, xtol=xtol,
   rtol=xrtol, maxiter=maxiter, fa=fa, fb=fb) with x the lam of *rhs
   (in_alpha == 0) or u(0) (in_alpha != 0, alpha unused), to the same bits:
   each trial is the start of radial_ivp.probe and then pspect_probe, and D is
   u(1), or blowup_miss signed by u where a shot with a blow-up limit
   (has_limit) stopped.  buf holds LOG_ROW maxiter doubles for the trial log
   and then the 20 cap + 4 n_samples + 7 of pspect_probe.  Returns 0 with
   out[0] the root and out[1] the index of its trial in the log at the front
   of buf (-1 where the root is a bracket end); PSPECT_FULL where a trial
   takes more than cap steps; PSPECT_RERUN where the Python solve raises or
   a trial is handed back (the caller then solves in Python). */
int pspect_solve(const Rhs *rhs, int in_alpha, double alpha, double m0, double p_conj,
                 double a, double b, double fa, double fb, double xtol, double xrtol,
                 int64_t maxiter, double eps, double rtol, double atol_u, double atol_v,
                 int has_limit, double blowup_limit, double blowup_miss, int64_t n_samples,
                 int64_t cap, double *buf, double *out)
{
    Solve S = {*rhs, in_alpha, has_limit, alpha, m0, p_conj, eps, rtol, atol_u, atol_v,
               blowup_limit, blowup_miss, n_samples, cap, 0, buf + LOG_ROW * maxiter, buf};
    double root;
    int status = brentq(trial, &S, a, b, fa, fb, xtol, xrtol, maxiter, &root);
    if (status)
        return status;
    int64_t k = S.n_log - 1;
    while (k >= 0 && S.log[LOG_ROW * k] != root)
        k--;
    out[0] = root;
    out[1] = (double)k;
    return 0;
}

/* hypot2 for its test: 0 with math.hypot(x, y) in *out, or 1 */
int pspect_hypot(double x, double y, double *out)
{
    return hypot2(x, y, out);
}

/* ------------------------------------------------------------------------
 * pspect_apply_f: F of a PHI or RATIONAL right-hand side on n values, as
 * nodal.Nonlinearity computes it.  Returns 1 where Python would raise.
 */
int pspect_apply_f(const Rhs *rhs, const double *u, int64_t n, double *out)
{
    Rhs R = *rhs;
    R.bad = 0;
    for (int64_t k = 0; k < n; k++)
        out[k] = R.family == PHI ? phi(&R, u[k]) : rational(&R, u[k]);
    return R.bad;
}
