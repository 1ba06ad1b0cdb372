/* Compiled step loop of pspect._rk45.integrate for the radial problems, and
 * the post-pass of pspect.radial_ivp.shoot over a finished shot.
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
#include <math.h>
#include <stdint.h>
#include <string.h>

enum {
    PSPECT_END = 0,       /* reached t_end */
    PSPECT_BLOWUP = 1,    /* |u| reached the blow-up limit */
    PSPECT_UNDERFLOW = 2, /* step size fell below h_min at r = state[0] */
    PSPECT_FULL = 3,      /* more accepted steps than the buffers hold */
    PSPECT_RERUN = 4      /* Python would raise; repeat on the Python stepper */
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

static double py_pow(Rhs *R, double x, double y)
{
    double z = pow(x, y);
    if (isinf(z))
        R->bad = 1; /* OverflowError for a finite x */
    return z;
}

static double py_div(Rhs *R, double a, double b)
{
    if (b == 0.0)
        R->bad = 1; /* ZeroDivisionError */
    return a / b;
}

/* radial_ivp._sgnpow */
static double sgnpow(Rhs *R, double x, double e)
{
    if (x > 0.0)
        return py_pow(R, x, e);
    if (x < 0.0)
        return -py_pow(R, -x, e);
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
    return copysign(py_pow(R, fabs(u), R->e), u);
}

/* nodal.Nonlinearity.rational */
static double rational(Rhs *R, double u)
{
    if (u == 0.0)
        return 0.0;
    double au = fabs(u);
    double auq = py_pow(R, au, R->q); /* Python computes au ** q twice, to these bits */
    double ratio = py_div(R, R->f0 + R->finf * auq, 1.0 + auq);
    return copysign(py_pow(R, au, R->e) * ratio, u);
}

/* nodal.Perturbation.__call__ */
static double perturbation(Rhs *R, double mval, double u)
{
    if (u == 0.0)
        return 0.0;
    return R->gc * mval * copysign(py_pow(R, fabs(u), R->ge), u);
}

/* w(r, u) of the family; family is a constant where the loop is inlined */
INLINE double w(Rhs *R, int family, double r, double u)
{
    double mval = weight(R, r);
    switch (family) {
    case LINEAR:
        return R->lam * mval * sgnpow(R, u, R->e);
    case PHI:
        return R->lam * mval * phi(R, u);
    case RATIONAL:
        return R->lam * mval * rational(R, u);
    default:
        return R->lam * mval * sgnpow(R, u, R->e) + perturbation(R, mval, u);
    }
}

/* radial_ivp._system */
INLINE void rhs(Rhs *R, int family, double r, double u, double v, double *du, double *dv)
{
    if (R->n_dim == 1) {
        *du = sgnpow(R, v, R->e_inv);
        *dv = -w(R, family, r, u);
    } else if (R->n_dim == 2) {
        *du = sgnpow(R, py_div(R, v, r), R->e_inv);
        *dv = -r * w(R, family, r, u);
    } else {
        double rn = py_pow(R, r, (double)(R->n_dim - 1));
        *du = sgnpow(R, py_div(R, v, rn), R->e_inv);
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
        double norm = sqrt(0.5 * (py_pow(R, fabs(py_div(R, err_u, scale_u)), 2.0)
                                  + py_pow(R, fabs(py_div(R, err_v, scale_v)), 2.0)));
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
 * loop ran it, computed as its numpy reference (radial_ivp._scan_reference)
 * computes it, to the same bits.  No power is taken here: numpy's array
 * power need not round as libm's pow does.
 */

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

#define RECORD 17 /* doubles per sign-change bracket */

/* The post-pass of radial_ivp.shoot over a shot of n >= 1 steps held in
   block as pspect_dp45 leaves it, with n_samples >= 2 and cap =
   n_samples + n + 1:
     samples[0..cap)       the grid union1d(linspace(eps, r_end, n_samples), ts)
     samples[cap..2 cap)   u on the grid
     samples[2 cap..3 cap) v on the grid
     scratch[0..cap)       max |u| over the grid from each point on (NaN if
                           any is NaN, as np.max)
     scratch[cap..cap + 2) u(1) and v(1)
     then one RECORD per sign change of u over the nodes ts and midpoints
     0.5 (ts[i] + ts[i + 1]) up to r_end, equal neighbours once, taken where
     u[k] == 0 or u[k] u[k + 1] < 0 (at most 2n): the nodes a and b, u(a),
     u(b), v(b), and the step of a (its left node, size, u0, the four u
     coefficients, v0, the four v coefficients).
   counts receives the grid length and the number of brackets. */
void pspect_scan(const double *block, int64_t n, double eps, double r_end, int64_t n_samples,
                 double *samples, int64_t cap, double *scratch, int64_t *counts)
{
    const double *ts = block, *y0s = block + n + 1, *hs = block + 3 * n + 1;
    const double *coef = block + 4 * n + 1;
    double *grid = samples, *u = samples + cap, *v = samples + 2 * cap;
    double *tail = scratch, *rec = scratch + cap + 2;

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
    int64_t nb = 0, ia = 0;
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
            double *r = rec + RECORD * nb++;
            const double *c = coef + 8 * ia;
            r[0] = xa;
            r[1] = x;
            r[2] = ua;
            r[3] = ux;
            r[4] = vx;
            r[5] = ts[ia];
            r[6] = hs[ia];
            r[7] = y0s[2 * ia];
            r[8] = c[0];
            r[9] = c[1];
            r[10] = c[2];
            r[11] = c[3];
            r[12] = y0s[2 * ia + 1];
            r[13] = c[4];
            r[14] = c[5];
            r[15] = c[6];
            r[16] = c[7];
        }
        xa = x;
        ua = ux;
        ia = i;
    }

    j = 0;
    dense_at(ts, y0s, hs, coef, step_of(ts, n, &j, 1.0), 1.0, scratch + cap, scratch + cap + 1);
    counts[0] = g;
    counts[1] = nb;
}
