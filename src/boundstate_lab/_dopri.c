/* The Dormand-Prince 5(4) march of integrate._march, for every shot.
 *
 * Every expression is the Python step's, term for term and in the same
 * order, so that with -ffp-contract=off (no fused multiply-add) and without
 * fast-math each double matches the Python run bit for bit.  exp, log, pow and
 * sqrt are libm's, which CPython's math module and ** call too; min and max
 * keep the argument order of Python's builtins (max(a, b) is b only if b > a).
 *
 * A kept shot hands in columns, and the march stores its trajectory there:
 * each knot and its state, and the stage slopes of each segment.  A counted
 * shot hands in none and stores no trajectory.  Either way, while it steps
 * the kernel counts the sign changes of u over the knots and the segment
 * midpoints, as portrait.count_nodes does from Trajectory.midpoints, and
 * splits the knots into blocks at each sign change seen at the knots alone,
 * keeping each block's first knot with the least |u| + |u'|.  A backward pass
 * after the run turns those into the rows classify._estimate_rows picks: for
 * block j, the first knot from block j to the end with the least |u| + |u'|.
 */
#include <math.h>

/* How the run ended; indices into integrate._ENDS.  END_OVERFLOW means an exp
 * overflowed, where math.exp raises, so the caller reruns the shot in Python. */
enum {
    END_RMAX, END_TRAPPED_AT_START, END_DIVERGED_AT_START, END_BUDGET,
    END_UNDERFLOW, END_NONFINITE, END_TRAPPED, END_DIVERGED, END_OVERFLOW
};

#define C2 (1.0 / 5.0)
#define C3 (3.0 / 10.0)
#define C4 (4.0 / 5.0)
#define C5 (8.0 / 9.0)
#define C6 1.0
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
#define P11 1.0
#define P12 (-8048581381.0 / 2820520608.0)
#define P13 (8663915743.0 / 2820520608.0)
#define P14 (-12715105075.0 / 11282082432.0)
#define P32 (131558114200.0 / 32700410799.0)
#define P33 (-68118460800.0 / 10900136933.0)
#define P34 (87487479700.0 / 32700410799.0)
#define P42 (-1754552775.0 / 470086768.0)
#define P43 (14199869525.0 / 1410260304.0)
#define P44 (-10690763975.0 / 1880347072.0)
#define P52 (127303824393.0 / 49829197408.0)
#define P53 (-318862633887.0 / 49829197408.0)
#define P54 (701980252875.0 / 199316789632.0)
#define P62 (-282668133.0 / 205662961.0)
#define P63 (2019193451.0 / 616988883.0)
#define P64 (-1453857185.0 / 822651844.0)
#define P72 (40617522.0 / 29380423.0)
#define P73 (-110615467.0 / 29380423.0)
#define P74 (69997945.0 / 29380423.0)

#define MAX_STEP 0.25
#define MIN_FACTOR 0.2
#define MAX_FACTOR 10.0
#define SAFETY 0.9

static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* exp(s*log|x|), or 0 at x = 0; sets *overflow where math.exp would raise. */
static double abs_pow(double x, double s, int *overflow)
{
    double arg, e;
    if (x == 0.0)
        return 0.0;
    arg = s * log(fabs(x));
    e = exp(arg);
    if (isinf(e) && isfinite(arg))
        *overflow = 1;
    return e;
}

/* Energy u'^2/2 - u^2/2 + |u|^(p+1)/(p+1), as the Python energy-trap test
 * writes it. */
static double energy(double u, double up, double p, double inv_p_p1, int *overflow)
{
    double well = -0.5 * u * u;
    if (u != 0.0)
        well += abs_pow(u, p + 1.0, overflow) * inv_p_p1;
    return 0.5 * up * up + well;
}

/* A block row is (r, u, u', v, v', |u| + |u'|). */
static void keep(double *row, double r, double u, double up, double v, double vp, double key)
{
    row[0] = r;
    row[1] = u;
    row[2] = up;
    row[3] = v;
    row[4] = vp;
    row[5] = key;
}

/* Knot i of a kept shot: r, u, u', v, v' in the first five columns. */
static void put(double *cols, long room, long i, double r, double u, double up, double v,
                double vp)
{
    cols[i] = r;
    cols[room + i] = u;
    cols[2 * room + i] = up;
    cols[3 * room + i] = v;
    cols[4 * room + i] = vp;
}

/* in: n - 1, p, abs_tol, rel_tol, r_max, the variation guard, and the series
 * start r, u, u', v, v'; stop_on_energy arms the energy trap.  rows holds cap
 * rows of 6 doubles.  cols is NULL for a counted shot; a kept shot passes
 * room for every knot the budget allows, room = max_steps + 1: five columns
 * of room doubles (r, u, u', v, v' at each knot), then four of 6 * room (k1,
 * k3, ..., k7 of u, u', v, v', six per segment).  On return out holds the
 * last knot and the step size, and counts the sign-change count, the number
 * of blocks and the accepted steps; rows 0 .. min(blocks, cap) - 1 are the
 * estimate rows.  Returns the END_ index. */
int dopri_march(const double *in, long max_steps, int stop_on_energy, long cap, double *rows,
                double *out, long *counts, double *cols)
{
    const long room = max_steps + 1;
    const double n_minus_1 = in[0], p = in[1], atol = in[2], rtol = in[3];
    const double r_max = in[4], v_guard = in[5];
    const double p_m1 = p - 1.0, inv_p_p1 = 1.0 / (p + 1.0);
    double r = in[6], u = in[7], up = in[8], v = in[9], vp = in[10];
    double h = 0.0, apw, drag, su, sv, norm, a, b;
    double k1u, k1up, k1v, k1vp, k2u, k2up, k2v, k2vp, k3u, k3up, k3v, k3vp;
    double k4u, k4up, k4v, k4vp, k5u, k5up, k5v, k5vp, k6u, k6up, k6v, k6vp;
    double k7u, k7up, k7v, k7vp;
    double prev = u, prev_knot = u;
    long count = 0, blocks = 1, steps = 0, j;
    int overflow = 0, end, i;

    keep(rows, r, u, up, v, vp, fabs(u) + fabs(up));
    if (cols)
        put(cols, room, 0, r, u, up, v, vp);

    if (stop_on_energy && energy(u, up, p, inv_p_p1, &overflow) <= 0.0) {
        end = END_TRAPPED_AT_START;
        goto done;
    }
    if (fabs(v) > v_guard) {
        end = END_DIVERGED_AT_START;
        goto done;
    }

    apw = abs_pow(u, p_m1, &overflow);
    drag = n_minus_1 / r;
    k1u = up;
    k1up = -drag * up - (apw - 1.0) * u;
    k1v = vp;
    k1vp = -drag * vp - (p * apw - 1.0) * v;
    h = py_min(py_min(10.0 * r, MAX_STEP), r_max - r);

    for (;;) {
        double u_new, up_new, v_new, vp_new, r_new;
        double err_u, err_up, err_v, err_vp, q_u, q_up, q_v, q_vp;
        double q0, q1, q2, q3, seg, theta, w, vals[2], key, factor;
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

        su = u + h * (A21 * k1u);
        k2u = up + h * (A21 * k1up);
        sv = v + h * (A21 * k1v);
        k2v = vp + h * (A21 * k1vp);
        apw = abs_pow(su, p_m1, &overflow);
        drag = n_minus_1 / (r + C2 * h);
        k2up = -drag * k2u - (apw - 1.0) * su;
        k2vp = -drag * k2v - (p * apw - 1.0) * sv;
        su = u + h * (A31 * k1u + A32 * k2u);
        k3u = up + h * (A31 * k1up + A32 * k2up);
        sv = v + h * (A31 * k1v + A32 * k2v);
        k3v = vp + h * (A31 * k1vp + A32 * k2vp);
        apw = abs_pow(su, p_m1, &overflow);
        drag = n_minus_1 / (r + C3 * h);
        k3up = -drag * k3u - (apw - 1.0) * su;
        k3vp = -drag * k3v - (p * apw - 1.0) * sv;
        su = u + h * (A41 * k1u + A42 * k2u + A43 * k3u);
        k4u = up + h * (A41 * k1up + A42 * k2up + A43 * k3up);
        sv = v + h * (A41 * k1v + A42 * k2v + A43 * k3v);
        k4v = vp + h * (A41 * k1vp + A42 * k2vp + A43 * k3vp);
        apw = abs_pow(su, p_m1, &overflow);
        drag = n_minus_1 / (r + C4 * h);
        k4up = -drag * k4u - (apw - 1.0) * su;
        k4vp = -drag * k4v - (p * apw - 1.0) * sv;
        su = u + h * (A51 * k1u + A52 * k2u + A53 * k3u + A54 * k4u);
        k5u = up + h * (A51 * k1up + A52 * k2up + A53 * k3up + A54 * k4up);
        sv = v + h * (A51 * k1v + A52 * k2v + A53 * k3v + A54 * k4v);
        k5v = vp + h * (A51 * k1vp + A52 * k2vp + A53 * k3vp + A54 * k4vp);
        apw = abs_pow(su, p_m1, &overflow);
        drag = n_minus_1 / (r + C5 * h);
        k5up = -drag * k5u - (apw - 1.0) * su;
        k5vp = -drag * k5v - (p * apw - 1.0) * sv;
        su = u + h * (A61 * k1u + A62 * k2u + A63 * k3u + A64 * k4u + A65 * k5u);
        k6u = up + h * (A61 * k1up + A62 * k2up + A63 * k3up + A64 * k4up + A65 * k5up);
        sv = v + h * (A61 * k1v + A62 * k2v + A63 * k3v + A64 * k4v + A65 * k5v);
        k6v = vp + h * (A61 * k1vp + A62 * k2vp + A63 * k3vp + A64 * k4vp + A65 * k5vp);
        apw = abs_pow(su, p_m1, &overflow);
        drag = n_minus_1 / (r + C6 * h);
        k6up = -drag * k6u - (apw - 1.0) * su;
        k6vp = -drag * k6v - (p * apw - 1.0) * sv;
        u_new = u + h * (B1 * k1u + B3 * k3u + B4 * k4u + B5 * k5u + B6 * k6u);
        up_new = up + h * (B1 * k1up + B3 * k3up + B4 * k4up + B5 * k5up + B6 * k6up);
        v_new = v + h * (B1 * k1v + B3 * k3v + B4 * k4v + B5 * k5v + B6 * k6v);
        vp_new = vp + h * (B1 * k1vp + B3 * k3vp + B4 * k4vp + B5 * k5vp + B6 * k6vp);
        r_new = clipped ? r_max : r + h;
        apw = abs_pow(u_new, p_m1, &overflow);
        drag = n_minus_1 / r_new;
        k7u = up_new;
        k7up = -drag * up_new - (apw - 1.0) * u_new;
        k7v = vp_new;
        k7vp = -drag * vp_new - (p * apw - 1.0) * v_new;
        if (overflow)
            return END_OVERFLOW;

        if (!(isfinite(u_new) && isfinite(up_new) && isfinite(v_new) && isfinite(vp_new))) {
            end = END_NONFINITE;
            goto done;
        }

        err_u = (E1 * k1u + E3 * k3u + E4 * k4u + E5 * k5u + E6 * k6u + E7 * k7u) * h;
        err_up = (E1 * k1up + E3 * k3up + E4 * k4up + E5 * k5up + E6 * k6up + E7 * k7up) * h;
        err_v = (E1 * k1v + E3 * k3v + E4 * k4v + E5 * k5v + E6 * k6v + E7 * k7v) * h;
        err_vp = (E1 * k1vp + E3 * k3vp + E4 * k4vp + E5 * k5vp + E6 * k6vp + E7 * k7vp) * h;
        a = fabs(u), b = fabs(u_new);
        q_u = err_u / (atol + rtol * (b > a ? b : a));
        a = fabs(up), b = fabs(up_new);
        q_up = err_up / (atol + rtol * (b > a ? b : a));
        a = fabs(v), b = fabs(v_new);
        q_v = err_v / (atol + rtol * (b > a ? b : a));
        a = fabs(vp), b = fabs(vp_new);
        q_vp = err_vp / (atol + rtol * (b > a ? b : a));
        norm = sqrt(0.25 * (q_u * q_u + q_up * q_up + q_v * q_v + q_vp * q_vp));
        if (norm > 1.0) {
            h *= py_max(MIN_FACTOR, SAFETY * pow(norm, -0.2));
            continue;
        }

        /* Accepted: a kept shot stores the knot and the segment's slopes. */
        if (cols) {
            double *k = cols + 5 * room + 6 * steps;
            put(cols, room, steps + 1, r_new, u_new, up_new, v_new, vp_new);
            k[0] = k1u, k[1] = k3u, k[2] = k4u, k[3] = k5u, k[4] = k6u, k[5] = k7u;
            k += 6 * room;
            k[0] = k1up, k[1] = k3up, k[2] = k4up, k[3] = k5up, k[4] = k6up, k[5] = k7up;
            k += 6 * room;
            k[0] = k1v, k[1] = k3v, k[2] = k4v, k[3] = k5v, k[4] = k6v, k[5] = k7v;
            k += 6 * room;
            k[0] = k1vp, k[1] = k3vp, k[2] = k4vp, k[3] = k5vp, k[4] = k6vp, k[5] = k7vp;
        }

        /* u at the segment midpoint, as Trajectory.midpoints reads
         * it from Trajectory.coeffs(0); then the node count over the
         * midpoint and the new knot. */
        q0 = 0.0 + k1u * P11;
        q1 = 0.0 + k1u * P12 + k3u * P32 + k4u * P42 + k5u * P52 + k6u * P62 + k7u * P72;
        q2 = 0.0 + k1u * P13 + k3u * P33 + k4u * P43 + k5u * P53 + k6u * P63 + k7u * P73;
        q3 = 0.0 + k1u * P14 + k3u * P34 + k4u * P44 + k5u * P54 + k6u * P64 + k7u * P74;
        seg = r_new - r;
        theta = (0.5 * (r + r_new) - r) / seg;
        w = theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)));
        vals[0] = u + seg * w;
        vals[1] = u_new;
        for (i = 0; i < 2; i++) {
            if (vals[i] != 0.0) {
                if (prev != 0.0 && (prev < 0.0) != (vals[i] < 0.0))
                    count++;
                prev = vals[i];
            }
        }

        /* A sign change at the knots opens a block at the new knot. */
        key = fabs(u_new) + fabs(up_new);
        if (u_new != 0.0) {
            int crossed = prev_knot != 0.0 && (prev_knot < 0.0) != (u_new < 0.0);
            prev_knot = u_new;
            if (crossed) {
                if (blocks < cap)
                    keep(rows + 6 * blocks, r_new, u_new, up_new, v_new, vp_new, key);
                blocks++;
            }
        }
        if (blocks <= cap && key < rows[6 * (blocks - 1) + 5])
            keep(rows + 6 * (blocks - 1), r_new, u_new, up_new, v_new, vp_new, key);
        steps++;

        r = r_new, u = u_new, up = up_new, v = v_new, vp = vp_new;
        k1u = k7u, k1up = k7up, k1v = k7v, k1vp = k7vp;

        if (stop_on_energy && energy(u, up, p, inv_p_p1, &overflow) <= 0.0) {
            end = END_TRAPPED;
            goto done;
        }
        if (fabs(v) > v_guard || fabs(vp) > v_guard) {
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
            factor = py_min(MAX_FACTOR, py_max(MIN_FACTOR, SAFETY * pow(norm, -0.2)));
        h = py_min(h * factor, MAX_STEP);
    }

done:
    if (overflow)
        return END_OVERFLOW;
    /* Suffix minimum over the blocks: on a tie the earlier block's knot is
     * the first one. */
    if (blocks <= cap)
        for (j = blocks - 2; j >= 0; j--)
            if (rows[6 * (j + 1) + 5] < rows[6 * j + 5])
                for (i = 0; i < 6; i++)
                    rows[6 * j + i] = rows[6 * (j + 1) + i];
    out[0] = r;
    out[1] = h;
    counts[0] = count;
    counts[1] = blocks;
    counts[2] = steps;
    return end;
}
