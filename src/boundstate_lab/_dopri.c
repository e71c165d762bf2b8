/* The DOP853 march of integrate._march, for every shot.
 *
 * The step reads integrate's tableau by index, from the arrays below: each
 * sum runs over the slopes in tableau order from -0.0 and skips the zero
 * weights, as integrate._weigh adds them.  So with -ffp-contract=off (no fused
 * multiply-add) and without fast-math each double matches the Python run bit
 * for bit.  pow and sqrt are libm's, which CPython's ** and math module call
 * too; min and max keep the argument order of Python's builtins (max(a, b) is
 * b only if b > a).
 *
 * A kept shot hands in columns, and the march stores its trajectory there:
 * each knot and its state, and each component's seven dense-output
 * coefficients and value at each segment midpoint, built by dense() as
 * integrate._march builds them.  A counted shot hands in none, stores no
 * trajectory and builds u's dense output alone, from the dense stages of u
 * and u' alone: their equation does not read v.  Either way, while it steps
 * the kernel counts the sign changes of u over the knots and the segment
 * midpoints, as portrait.count_nodes does from Trajectory.midpoints, and
 * splits the knots into blocks at each sign change seen at the knots alone.
 * Of the last two blocks it keeps two rows, the two classify._estimate_rows
 * picks: the first knot with the least |u| + |u'| since the next-to-last
 * block opened, and since the last one did, the knot where the energy trap
 * fires left out.
 */
#include <math.h>

/* How the run ended; indices into integrate._ENDS.  END_OVERFLOW means a pow
 * overflowed, where ** raises, so the caller reruns the shot in Python. */
enum {
    END_RMAX, END_TRAPPED_AT_START, END_DIVERGED_AT_START, END_BUDGET,
    END_UNDERFLOW, END_NONFINITE, END_TRAPPED, END_DIVERGED, END_OVERFLOW
};

#define COEFFS 7 /* dense-output coefficients per segment and component */
/* Per knot: r, u, u', v, v', then COEFFS coefficients and a midpoint per component. */
#define COLUMNS 37

/* Stage s = 1..11 at r + C[s] h weighs slopes 0..s-1 by A[s]; A[12] weighs
 * them into the solution, whose slope is stage 12; stages 13..15 feed the
 * dense output, whose last four coefficients weigh all 16 slopes by D. */
static const double C[16] = {
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778,
};
static const double A[16][15] = {
    {0.0},
    {0.05260015195876773},
    {0.0197250569845379, 0.0591751709536137},
    {0.02958758547680685, 0.0, 0.08876275643042054},
    {0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792},
    {0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242},
    {0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125},
    {
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    },
    {
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    },
    {
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
        15.279233632882423, -33.28821096898486, -0.020331201708508627,
    },
    {
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    },
    {
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    },
    {
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    },
    {
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    },
    {
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    },
    {
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    },
};
static const double E5[12] = {
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
};
static const double E3[12] = {
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
};
static const double D[4][16] = {
    {
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    },
    {
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    },
    {
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    },
    {
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    },
};

#define MAX_STEP 0.25
#define MIN_FACTOR 0.2
#define MAX_FACTOR 10.0
#define SAFETY 0.9
#define EXPONENT -0.125

/* The field: n - 1, p and p - 1. */
struct field {
    double n_minus_1, p, p_m1;
};

static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* |x|**s, or 0 at x = 0; sets *overflow where ** would raise. */
static double abs_pow(double x, double s, int *overflow)
{
    double e;
    if (x == 0.0)
        return 0.0;
    e = pow(fabs(x), s);
    if (isinf(e) && isfinite(x))
        *overflow = 1;
    return e;
}

/* The slope (u', u'', v', v'') at r and y, in its first width components. */
static void slope(double *k, double r, const double *y, int width, const struct field *fl,
                  int *overflow)
{
    double apw = abs_pow(y[0], fl->p_m1, overflow), drag = fl->n_minus_1 / r;
    k[0] = y[1];
    k[1] = -drag * y[1] - (apw - 1.0) * y[0];
    if (width == 4) {
        k[2] = y[3];
        k[3] = -drag * y[3] - (fl->p * apw - 1.0) * y[2];
    }
}

/* The sum of w[j] * k[j][c] over j < m, as integrate._weigh adds it. */
static double weigh(const double *w, int m, double (*k)[4], int c)
{
    double acc = -0.0;
    int j;
    for (j = 0; j < m; j++)
        if (w[j] != 0.0)
            acc += w[j] * k[j][c];
    return acc;
}

/* Stage s of the step of size h from r and y, in its first width components. */
static void stage(double (*k)[4], int s, double r, double h, const double *y, int width,
                  const struct field *fl, int *overflow)
{
    double ys[4];
    int c;
    for (c = 0; c < width; c++)
        ys[c] = y[c] + h * weigh(A[s], s, k, c);
    slope(k[s], r + C[s] * h, ys, width, fl, overflow);
}

/* Energy u'^2/2 - u^2/2 + |u|^(p+1)/(p+1), as the Python energy-trap test
 * writes it. */
static double energy(double u, double up, double p_p1, double inv_p_p1, int *overflow)
{
    double well = -0.5 * u * u;
    if (u != 0.0)
        well += abs_pow(u, p_p1, overflow) * inv_p_p1;
    return 0.5 * up * up + well;
}

/* Component c's seven dense-output coefficients of the step of size h from
 * y to y_new with slopes k; returns its value at the point theta of the
 * segment, as Trajectory.value reads it. */
static double dense(double *q, double y, double y_new, double h, double (*k)[4], int c,
                    double theta)
{
    double dy = y_new - y, s = 1.0 - theta;
    int i;
    q[0] = dy;
    q[1] = h * k[0][c] - dy;
    q[2] = 2.0 * dy - h * (k[12][c] + k[0][c]);
    for (i = 0; i < 4; i++)
        q[3 + i] = h * weigh(D[i], 16, k, c);
    return y + theta * (q[0] + s * (q[1] + theta * (q[2] + s * (q[3] + theta * (
        q[4] + s * (q[5] + theta * q[6]))))));
}

/* A row is (r, u, u', v, v', |u| + |u'|). */
static void keep(double *row, double r, const double *y)
{
    int c;
    row[0] = r;
    for (c = 0; c < 4; c++)
        row[1 + c] = y[c];
    row[5] = fabs(y[0]) + fabs(y[1]);
}

/* Knot i of a kept shot: r, u, u', v, v' in the first five columns. */
static void put(double *cols, long room, long i, double r, const double *y)
{
    int c;
    cols[i] = r;
    for (c = 0; c < 4; c++)
        cols[(1 + c) * room + i] = y[c];
}

/* in: n - 1, p, abs_tol, rel_tol, r_max, the variation guard, and the series
 * start r, u, u', v, v'; stop_on_energy arms the energy trap.  rows holds two
 * rows of 6 doubles.  cols is NULL for a counted shot; a kept shot passes
 * room for every knot the budget allows, room = max_steps + 1: five columns
 * of room doubles (r, u, u', v, v' at each knot), then four of COEFFS * room
 * (the coefficients of u, u', v, v', COEFFS per segment), then four of room
 * (u, u', v, v' at each segment midpoint): COLUMNS doubles per knot.  On
 * return out holds the last knot and the step size, and counts the
 * sign-change count, the number of blocks and the accepted steps; rows holds
 * the least-key knot since block blocks - 2 opened (the first knot while
 * there is one block), then since block blocks - 1 did.  Returns the END_
 * index. */
int dopri_march(const double *in, long max_steps, int stop_on_energy, double *rows,
                double *out, long *counts, double *cols)
{
    const long room = max_steps + 1;
    const struct field fl = {in[0], in[1], in[1] - 1.0};
    const double atol = in[2], rtol = in[3], r_max = in[4], v_guard = in[5];
    const double p_p1 = in[1] + 1.0, inv_p_p1 = 1.0 / p_p1;
    const int width = cols ? 4 : 2; /* the dense stages: all four components, or u's pair */
    double r = in[6], y[4] = {in[7], in[8], in[9], in[10]};
    double k[16][4], h = 0.0, norm;
    double prev = y[0], prev_knot = y[0];
    long count = 0, blocks = 1, steps = 0;
    int overflow = 0, rejected = 0, trapped, end, i, c, s;

    keep(rows, r, y);
    keep(rows + 6, r, y);
    if (cols)
        put(cols, room, 0, r, y);

    if (stop_on_energy && energy(y[0], y[1], p_p1, inv_p_p1, &overflow) <= 0.0) {
        end = END_TRAPPED_AT_START;
        goto done;
    }
    if (fabs(y[2]) > v_guard) {
        end = END_DIVERGED_AT_START;
        goto done;
    }

    slope(k[0], r, y, 4, &fl, &overflow);
    h = py_min(py_min(10.0 * r, MAX_STEP), r_max - r);

    for (;;) {
        double y_new[4], r_new, q5[4], q3[4], e5, e3, a, b, scale, theta, vals[2], factor;
        int clipped = 0;

        if (steps >= max_steps) {
            end = END_BUDGET;
            goto done;
        }
        if (h < 1e-14 * py_max(1.0, r)) {
            end = END_UNDERFLOW;
            goto done;
        }
        if (r + h >= r_max) {
            h = r_max - r;
            clipped = 1;
        }

        for (s = 1; s < 12; s++)
            stage(k, s, r, h, y, 4, &fl, &overflow);
        for (c = 0; c < 4; c++)
            y_new[c] = y[c] + h * weigh(A[12], 12, k, c);
        r_new = clipped ? r_max : r + h;
        slope(k[12], r_new, y_new, 4, &fl, &overflow);
        if (overflow)
            return END_OVERFLOW;

        if (!(isfinite(y_new[0]) && isfinite(y_new[1]) && isfinite(y_new[2])
              && isfinite(y_new[3]))) {
            end = END_NONFINITE;
            goto done;
        }

        /* DOP853's error norm: the RMS of the 5th-order estimate over each
         * component's scale, damped by the 3rd-order one. */
        for (c = 0; c < 4; c++) {
            a = fabs(y[c]), b = fabs(y_new[c]);
            scale = atol + rtol * (b > a ? b : a);
            q5[c] = weigh(E5, 12, k, c) / scale;
            q3[c] = weigh(E3, 12, k, c) / scale;
        }
        e5 = q5[0] * q5[0] + q5[1] * q5[1] + q5[2] * q5[2] + q5[3] * q5[3];
        e3 = q3[0] * q3[0] + q3[1] * q3[1] + q3[2] * q3[2] + q3[3] * q3[3];
        norm = e5 == 0.0 && e3 == 0.0 ? 0.0 : h * e5 / sqrt((e5 + 0.01 * e3) * 4.0);
        if (norm > 1.0) {
            h *= py_max(MIN_FACTOR, SAFETY * pow(norm, EXPONENT));
            rejected = 1;
            continue;
        }

        /* Accepted: the dense stages; a kept shot stores the knot, and each
         * component's coefficients and midpoint value; a counted one builds
         * u's alone.  The node count then reads u at the midpoint and at the
         * new knot. */
        for (s = 13; s < 16; s++)
            stage(k, s, r, h, y, width, &fl, &overflow);
        theta = (0.5 * (r + r_new) - r) / (r_new - r);
        if (cols) {
            double *q = cols + 5 * room + COEFFS * steps;
            double *mid = cols + (COLUMNS - 4) * room + steps;
            put(cols, room, steps + 1, r_new, y_new);
            for (c = 0; c < 4; c++)
                mid[c * room] = dense(q + c * COEFFS * room, y[c], y_new[c], h, k, c, theta);
            vals[0] = mid[0];
        } else {
            double q[COEFFS];
            vals[0] = dense(q, y[0], y_new[0], h, k, 0, theta);
        }
        vals[1] = y_new[0];
        for (i = 0; i < 2; i++) {
            if (vals[i] != 0.0) {
                if (prev != 0.0 && (prev < 0.0) != (vals[i] < 0.0))
                    count++;
                prev = vals[i];
            }
        }

        /* A sign change at the knots opens a block at the new knot: the
         * last block's row becomes the next-to-last's.  The knot where the
         * energy trap fires is not read. */
        trapped = stop_on_energy && energy(y_new[0], y_new[1], p_p1, inv_p_p1, &overflow) <= 0.0;
        if (y_new[0] != 0.0 && !trapped) {
            if (prev_knot != 0.0 && (prev_knot < 0.0) != (y_new[0] < 0.0)) {
                for (i = 0; i < 6; i++)
                    rows[i] = rows[6 + i];
                keep(rows + 6, r_new, y_new);
                blocks++;
            }
            prev_knot = y_new[0];
        }
        for (i = 0; i < 12 && !trapped; i += 6)
            if (fabs(y_new[0]) + fabs(y_new[1]) < rows[i + 5])
                keep(rows + i, r_new, y_new);
        steps++;

        r = r_new;
        for (c = 0; c < 4; c++) {
            y[c] = y_new[c];
            k[0][c] = k[12][c];
        }

        if (trapped) {
            end = END_TRAPPED;
            goto done;
        }
        if (fabs(y[2]) > v_guard || fabs(y[3]) > v_guard) {
            end = END_DIVERGED;
            goto done;
        }
        if (clipped || r >= r_max) {
            end = END_RMAX;
            goto done;
        }

        if (norm == 0.0)
            factor = MAX_FACTOR;
        else
            factor = py_min(MAX_FACTOR, py_max(MIN_FACTOR, SAFETY * pow(norm, EXPONENT)));
        if (rejected) /* a step that followed a rejection does not grow the next */
            factor = py_min(1.0, factor);
        rejected = 0;
        h = py_min(h * factor, MAX_STEP);
    }

done:
    if (overflow)
        return END_OVERFLOW;
    out[0] = r;
    out[1] = h;
    counts[0] = count;
    counts[1] = blocks;
    counts[2] = steps;
    return end;
}
