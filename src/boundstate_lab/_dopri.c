/* The DOP853 march of integrate._march, for every shot, and the CSV rows of io.csv_text.
 *
 * The step reads integrate's tableau by index, from the arrays that
 * _dopri._declarations writes ahead of this file with the controller's
 * constants and COLUMNS: each sum runs over the slopes in tableau order from
 * -0.0 and skips the zero weights, as integrate._weigh adds them.  So with
 * -ffp-contract=off (no fused multiply-add) and without fast-math each double
 * matches the Python run bit for bit.  pow and sqrt are libm's, which CPython's
 * ** and math module call too; min and max keep the argument order of Python's
 * builtins (max(a, b) is b only if b > a).  f, f' and the energy are field's,
 * which _march reads; a pow that overflows is inf here and in integrate._power.
 *
 * A kept shot hands in columns, and the march stores its trajectory there:
 * each knot and its state, and each component's seven dense-output
 * coefficients and value at each segment midpoint, built by dense() as
 * integrate._march builds them.  A counted shot hands in none, stores no
 * trajectory and builds u's dense output alone, from the dense stages of u
 * and u' alone: their equation does not read v.  Either way, while it steps
 * the kernel counts the sign changes of u over the knots and the segment
 * midpoints, as portrait.count_nodes does from Trajectory.midpoints, and
 * keeps the two rows classify._estimate_rows picks (see dopri_march).
 */
#include <math.h>

#define COEFFS 7 /* dense-output coefficients per segment and component */

struct field {
    double n_minus_1, p, p_m1;
};

static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* The slope (u', u'', v', v'') at r and y, in its first width components.
 * field.abs_pow's exact zero needs no branch here: pow(0, s) is 0 for s > 0. */
static void slope(double *k, double r, const double *y, int width, const struct field *fl)
{
    double apw = pow(fabs(y[0]), fl->p_m1), drag = fl->n_minus_1 / r;
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
                  const struct field *fl)
{
    double ys[4];
    int c;
    for (c = 0; c < width; c++)
        ys[c] = y[c] + h * weigh(A[s], s, k, c);
    slope(k[s], r + C[s] * h, ys, width, fl);
}

/* The energy u'^2/2 + F(u), F(u) = -u^2/2 + |u|^(p+1)/(p+1), as field._energy
 * and field.big_F write it. */
static double energy(double u, double up, double p)
{
    return 0.5 * up * up + (-0.5 * u * u + pow(fabs(u), p + 1.0) / (p + 1.0));
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
 * return out holds the last knot and the step size, and counts the sign-change
 * count, the number of blocks (a sign change at the knots opens one) and the
 * accepted steps; rows holds the knot of least |u| + |u'| since block blocks - 2
 * opened (the first knot while there is one block), then since block blocks - 1
 * did, the knot where the energy trap fires left out.  Returns how the run ended:
 * END_<NAME>, which _dopri._declarations defines as integrate._<NAME>. */
int dopri_march(const double *in, long max_steps, int stop_on_energy, double *rows,
                double *out, long *counts, double *cols)
{
    const long room = max_steps + 1;
    const struct field fl = {in[0], in[1], in[1] - 1.0};
    const double atol = in[2], rtol = in[3], r_max = in[4], v_guard = in[5];
    const int width = cols ? 4 : 2; /* the dense stages: all four components, or u's pair */
    double r = in[6], y[4] = {in[7], in[8], in[9], in[10]};
    double k[16][4], h = 0.0, norm;
    double prev = y[0], prev_knot = y[0];
    long count = 0, blocks = 1, steps = 0;
    int rejected = 0, trapped, end, i, c, s;

    keep(rows, r, y);
    keep(rows + 6, r, y);
    if (cols)
        put(cols, room, 0, r, y);

    if (stop_on_energy && energy(y[0], y[1], fl.p) <= 0.0) {
        end = END_TRAPPED_AT_START;
        goto done;
    }
    if (fabs(y[2]) > v_guard) {
        end = END_DIVERGED_AT_START;
        goto done;
    }

    slope(k[0], r, y, 4, &fl);
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
            stage(k, s, r, h, y, 4, &fl);
        for (c = 0; c < 4; c++)
            y_new[c] = y[c] + h * weigh(A[12], 12, k, c);
        r_new = clipped ? r_max : r + h;
        slope(k[12], r_new, y_new, 4, &fl);

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
            stage(k, s, r, h, y, width, &fl);
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
        trapped = stop_on_energy && energy(y_new[0], y_new[1], fl.p) <= 0.0;
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
    out[0] = r;
    out[1] = h;
    counts[0] = count;
    counts[1] = blocks;
    counts[2] = steps;
    return end;
}

/* The CSV rows of io.csv_text: each value as '%.17g' % x writes it, its exact
 * value rounded half to even to 17 significant digits, for decimal exponents
 * E = floor(log10|x|) in [-16, 16].  With |x| = m 2^e (m < 2^53) the digits are
 * m 5^(16-E) 2^(e+16-E), exact in 128 bits.  The binary exponent guesses E and
 * the truncated digits correct it; rounded ones would give the double just below
 * a power of ten that power's exponent. */
#ifndef __SIZEOF_INT128__
static char *put17(char *out, double x) { return 0; } /* every row is the caller's */
#else
typedef unsigned __int128 u128;

/* x as '%.17g' % x writes it, at out: returns the text's end, or NULL out of range. */
static char *put17(char *out, double x)
{
    const u128 lo = 10000000000000000ULL, hi = 10 * lo;
    double a = fabs(x);
    int e, E, i, s, len, point;
    unsigned long long n;
    u128 m, q, p, unit, low;
    char d[17];
    if (!(a > 0.0 && a < 1e17)) /* inf and NaN too */
        return 0;
    m = (u128)ldexp(frexp(a, &e), 53);
    E = (int)floor(e * 0.30102999566398120); /* log10(2^e): E or E + 1 */
    for (e -= 53, E = E > 16 ? 16 : E; E >= -16; E += q < lo ? -1 : 1) {
        for (q = m, p = 5, i = 16 - E; i; i >>= 1, p *= p) /* q = m 5^(16-E) */
            q *= i & 1 ? p : 1;
        s = e + 16 - E; /* the digits are q 2^s */
        unit = (u128)1 << (s < 0 ? -s : 0);
        low = 2 * (q & (unit - 1)); /* twice what lies below the last digit */
        q = s < 0 ? q >> -s : q << s;
        if (q >= lo && q < hi)
            break;
    }
    if (E < -16)
        return 0;
    q += low > unit || (low == unit && (q & 1));
    E += q == hi; /* rounded up to the next power of ten */
    for (n = (unsigned long long)(q == hi ? lo : q), i = 16; i >= 0; i--, n /= 10)
        d[i] = (char)('0' + n % 10);
    for (len = 17; d[len - 1] == '0'; len--) /* trailing zeros are dropped */
        ;
    point = E < -4 || E > 16 ? 0 : E; /* the point follows digit point, or leads 0.000 */
    if (x < 0)
        *out++ = '-';
    for (i = point - 1; point < 0 && i < 0; i++)
        *out++ = i == point ? '.' : '0';
    for (i = 0; i < len || i <= point; i++) {
        *out++ = d[i];
        if (i == point && i + 1 < len)
            *out++ = '.';
    }
    if (E < -4 || E > 16) { /* e-05, e+17 */
        *out++ = 'e';
        *out++ = E < 0 ? '-' : '+';
        *out++ = (char)('0' + (E < 0 ? -E : E) / 10);
        *out++ = (char)('0' + (E < 0 ? -E : E) % 10);
    }
    return out;
}
#endif

/* The rows x width values at x as CSV rows at out (24 characters a value at
 * most), each ending in '\n'; a row holding a value put17 does not write is the
 * empty line.  Returns the length of the text. */
long csv_rows(const double *x, long rows, long width, char *out)
{
    char *start = out, *row;
    long i, j;
    for (i = 0; i < rows; i++) {
        row = out;
        for (j = 0; j < width && out; j++) {
            if (j)
                *out++ = ',';
            out = put17(out, x[i * width + j]);
        }
        out = out ? out : row;
        *out++ = '\n';
    }
    return out - start;
}
