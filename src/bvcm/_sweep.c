/* Compiled sampler phases of the B-VCM Gibbs sampler: the single-site
 * sweep, the auxiliary-variable (alpha, theta) update, the degree-table
 * refresh, the mixing-matrix redraw and the collapsed log-probability.
 *
 * Each computes what its Python reference computes, in the same order,
 * so both give bit-identical chains: the sweep is
 * gibbs._ListSweep.update over log_weights_detached, the degree table
 * and the redraw GibbsSampler's Python paths, and bvcm_log_prob
 * likelihood.log_prob_from_stats.  Every plain sum runs left to right,
 * no multiply-add is fused (built with -ffp-contract=off), log and exp
 * are libm's as in Python's math module, lgamma is a port of CPython's
 * own (libm's lgamma differs from math.lgamma in the last bits), and
 * the log-probability's sums are a port of math.fsum, correctly rounded
 * and so independent of the order of the blocks.
 *
 * The state layout mirrors bvcm._sweep.SweepState; arrays are numpy's,
 * row-major, with the mixing matrix, degree table and degree histogram
 * flattened.  The five count arrays are the fields of the sampler's
 * core.SufficientStats, under the same names, and the sweep keeps every
 * one of them current, the degree histogram included.  bvcm_aux_block
 * writes alpha and theta in place, and every phase shares one lgamma memo.
 *
 * The kernel makes every draw of an iteration (the sweep's, one uniform
 * per node; bvcm_aux's; bvcm_propensity's, those of Generator.dirichlet)
 * through numpy's random C API (numpy/random/distributions.h, linked
 * from libnpyrandom.a) on the Generator's own bit generator, in numpy's
 * order, so they return the values of the Python paths and leave the
 * Generator in the same state.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/distributions.h"

typedef struct {
    int64_t n;             /* nodes */
    int64_t k;             /* blocks */
    int64_t hist_width;    /* maximum degree + 1: row length of deg_hist and la_deg */
    int64_t n_degrees;     /* distinct degrees that occur */
    int64_t memo_bits;     /* log2 of the lgamma memo's size */
    double block_conc;     /* omega */
    double recv_conc;      /* zeta */
    bitgen_t *bitgen;      /* the sampler's Generator's bit generator */
    int64_t *labels;       /* [n] */
    const int64_t *deg;    /* [n] appearances */
    const int64_t *degrees;     /* [n_degrees] the degrees that occur: la_deg's live columns */
    const int64_t *node_inits;  /* [n] interactions initiated */
    const int64_t *self_pairs;  /* [n] self-addressed receptions */
    const int64_t *out_off, *out_idx;  /* CSR out-neighbours, loops excluded */
    const int64_t *in_off, *in_idx;    /* CSR in-neighbours, loops excluded */
    int64_t *block_sizes;  /* [k] nodes per block */
    int64_t *block_deg;    /* [k] total degree per block */
    int64_t *initiations;  /* [k] interactions initiated per block */
    int64_t *pair;         /* [k*k] sender-block x receiver-block counts */
    int64_t *deg_hist;     /* [k*hist_width] block-b nodes of degree d at [b, d] */
    double *prop;            /* [k*k] mixing matrix */
    double *log_prop;        /* [k*k] log max(prop, 1e-12) */
    double *la_deg;          /* [k*hist_width] log (1 - alpha_b)_{d-1} at [b, d] */
    double *alpha;           /* [k] */
    double *theta;           /* [k] */
    const double *prior;     /* [4] Beta (c, d) on alpha, Gamma (shape, rate) on theta */
    uint64_t *memo_key;      /* [1 << memo_bits] lgamma argument bits; 0 = empty */
    double *memo_val;        /* [1 << memo_bits] lgamma of that argument */
} SweepState;

/* ---- lgamma: port of m_lgamma from CPython's Modules/mathmodule.c
 * (Copyright Python Software Foundation, PSF License Agreement), for
 * positive finite arguments, which is all the sweep passes it. */

#define LANCZOS_N 13
static const double lanczos_g = 6.024680040776729583740234375;
static const double lanczos_num_coeffs[LANCZOS_N] = {
    23531376880.410759688572007674451636754734846804940,
    42919803642.649098768957899047001988850926355848959,
    35711959237.355668049440185451547166705960488635843,
    17921034426.037209699919755754458931112671403265390,
    6039542586.3520280050642916443072979210699388420708,
    1439720407.3117216736632230727949123939715485786772,
    248874557.86205415651146038641322942321632125127801,
    31426415.585400194380614231628318205362874684987640,
    2876370.6289353724412254090516208496135991145378768,
    186056.26539522349504029498971604569928220784236328,
    8071.6720023658162106380029022722506138218516325024,
    210.82427775157934587250973392071336271166969580291,
    2.5066282746310002701649081771338373386264310793408
};
/* denominator is x*(x+1)*...*(x+LANCZOS_N-2) */
static const double lanczos_den_coeffs[LANCZOS_N] = {
    0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0, 45995730.0,
    13339535.0, 2637558.0, 357423.0, 32670.0, 1925.0, 66.0, 1.0};

static double lanczos_sum(double x)
{
    double num = 0.0, den = 0.0;
    int i;
    /* Rescaled by x**(1-LANCZOS_N) above 5 to avoid overflow. */
    if (x < 5.0) {
        for (i = LANCZOS_N; --i >= 0; ) {
            num = num * x + lanczos_num_coeffs[i];
            den = den * x + lanczos_den_coeffs[i];
        }
    }
    else {
        for (i = 0; i < LANCZOS_N; i++) {
            num = num / x + lanczos_num_coeffs[i];
            den = den / x + lanczos_den_coeffs[i];
        }
    }
    return num / den;
}

double bvcm_lgamma(double x)
{
    double r;
    if (x == floor(x) && x <= 2.0)
        return 0.0;  /* lgamma(1) = lgamma(2) = 0 */
    if (x < 1e-20)
        return -log(x);
    r = log(lanczos_sum(x)) - lanczos_g;
    r += (x - 0.5) * (log(x + lanczos_g - 0.5) - 1);
    return r;
}

/* lgamma through a direct-mapped memo keyed by the argument's bits
 * (Fibonacci hashing).  A sweep makes several thousand calls on a few
 * hundred distinct arguments, and the degree table and then the
 * log-probability take lgamma(d - alpha_b) for the same alpha; a hit
 * returns the value the same function gave for the same input.  Every
 * argument is positive, so its bits are never 0 and a zeroed table
 * starts empty. */
static double memo_lgamma(const SweepState *s, double x)
{
    uint64_t bits;
    size_t slot;
    double v;
    memcpy(&bits, &x, sizeof bits);
    slot = (size_t)((bits * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - s->memo_bits));
    if (s->memo_key[slot] == bits)
        return s->memo_val[slot];
    v = bvcm_lgamma(x);
    s->memo_key[slot] = bits;
    s->memo_val[slot] = v;
    return v;
}

/* ---- the sweep */

static void detach(const SweepState *s, int64_t i)
{
    const int64_t b = s->labels[i], d = s->deg[i];
    s->block_sizes[b] -= 1;
    s->block_deg[b] -= d;
    s->initiations[b] -= s->node_inits[i];
    s->deg_hist[b * s->hist_width + d] -= 1;
}

/* Neighbour counts per block of detached node i, then its unnormalized
 * log conditional over blocks (_ListSweep.log_weights_detached). */
static void log_weights(const SweepState *s, int64_t i, int64_t *cnt_out,
                        int64_t *cnt_in, double *w)
{
    const int64_t k = s->k;
    const int64_t *lab = s->labels;
    const int64_t d_i = s->deg[i], l_i = s->node_inits[i], sp = s->self_pairs[i];
    const double omega = s->block_conc;
    int64_t b, b2, e;

    for (b = 0; b < k; b++)
        cnt_out[b] = cnt_in[b] = 0;
    for (e = s->out_off[i]; e < s->out_off[i + 1]; e++)
        cnt_out[lab[s->out_idx[e]]] += 1;
    for (e = s->in_off[i]; e < s->in_off[i + 1]; e++)
        cnt_in[lab[s->in_idx[e]]] += 1;

    for (b = 0; b < k; b++) {
        const double *row = s->log_prop + b * k;
        const double th = s->theta[b];
        const int64_t vb = s->block_sizes[b], md = s->block_deg[b];
        double wb = 0.0;
        if (l_i)
            wb = memo_lgamma(s, omega + (double)s->initiations[b] + (double)l_i)
                 - memo_lgamma(s, omega + (double)s->initiations[b]);
        for (b2 = 0; b2 < k; b2++) {
            if (cnt_out[b2])
                wb += (double)cnt_out[b2] * row[b2];
            if (cnt_in[b2])
                wb += (double)cnt_in[b2] * s->log_prop[b2 * k + b];
        }
        if (sp)
            wb += (double)sp * row[b];
        if (vb)
            wb += log(th + (double)vb * s->alpha[b]);
        wb += s->la_deg[b * s->hist_width + d_i];
        if (md)
            wb += memo_lgamma(s, th + (double)md)
                  - memo_lgamma(s, th + (double)md + (double)d_i);
        else
            wb += memo_lgamma(s, th + 1.0)
                  - memo_lgamma(s, th + (double)d_i);
        w[b] = wb;
    }
}

/* Put detached node i into block b (_ListSweep.reattach). */
static void reattach(const SweepState *s, int64_t i, int64_t b,
                     const int64_t *cnt_out, const int64_t *cnt_in)
{
    const int64_t k = s->k, old = s->labels[i], sp = s->self_pairs[i], d = s->deg[i];
    int64_t b2;
    s->block_sizes[b] += 1;
    s->block_deg[b] += d;
    s->initiations[b] += s->node_inits[i];
    s->deg_hist[b * s->hist_width + d] += 1;
    if (b == old)
        return;
    for (b2 = 0; b2 < k; b2++) {
        s->pair[old * k + b2] -= cnt_out[b2];
        s->pair[b * k + b2] += cnt_out[b2];
        s->pair[b2 * k + old] -= cnt_in[b2];
        s->pair[b2 * k + b] += cnt_in[b2];
    }
    if (sp) {
        s->pair[old * k + old] -= sp;
        s->pair[b * k + b] += sp;
    }
    s->labels[i] = b;
}

/* One pass of single-node updates in node order, node i drawing one
 * uniform from the bit generator; returns how many nodes changed block. */
int64_t bvcm_sweep(const SweepState *s)
{
    const int64_t k = s->k;
    int64_t i, j, b, moved = 0;
    int64_t cnt_out[k], cnt_in[k];
    double w[k];
    for (i = 0; i < s->n; i++) {
        double mx, total = 0.0, r;
        detach(s, i);
        log_weights(s, i, cnt_out, cnt_in, w);
        mx = w[0];
        for (j = 1; j < k; j++)
            if (w[j] > mx)
                mx = w[j];
        for (j = 0; j < k; j++) {
            w[j] = exp(w[j] - mx);
            total += w[j];
        }
        r = random_standard_uniform(s->bitgen) * total;
        b = k - 1;
        for (j = 0; j < k - 1; j++) {
            r -= w[j];
            if (r < 0.0) {
                b = j;
                break;
            }
        }
        moved += b != s->labels[i];
        reattach(s, i, b, cnt_out, cnt_in);
    }
    return moved;
}

/* ---- the (alpha, theta) update (gibbs.aux_update_alpha_theta) */

#define EPS 1e-12  /* gibbs._EPS */

static double at_least_eps(double x)
{
    return EPS > x ? EPS : x;  /* Python's max(x, _EPS) */
}

static double clip_alpha(double x)
{
    x = at_least_eps(x);
    return 1.0 - EPS < x ? 1.0 - EPS : x;
}

/* Conjugate redraw of one block's (alpha, theta) from its degree
 * histogram hist[0..len-1] (hist[d]: nodes of degree d, hist[0] = 0);
 * prior holds (c, d) of the Beta prior on alpha, then (shape, rate) of
 * the Gamma prior on theta.  Reads the current pair from *alpha_io and
 * *theta_io and writes the new one there.  The tail count n_j (nodes of
 * degree > j) is carried down from the node count, so no buffer is
 * needed. */
void bvcm_aux(bitgen_t *bitgen, const int64_t *hist, int64_t len, const double *prior,
              double *alpha_io, double *theta_io)
{
    const double c_hyp = prior[0], d_hyp = prior[1], a_hyp = prior[2], b_hyp = prior[3];
    const double alpha = *alpha_io, theta = *theta_io;
    binomial_t binomial;
    int64_t max_d = len - 1, v_b = 0, m_b = 0, n_y, sum_y = 0, sum_not_z = 0, n_j, d, i;
    double rate = b_hyp;

    while (max_d >= 0 && hist[max_d] == 0)
        max_d--;
    if (max_d < 0) {
        *alpha_io = clip_alpha(random_beta(bitgen, c_hyp, d_hyp));
        *theta_io = at_least_eps(random_gamma(bitgen, a_hyp, 1.0 / b_hyp));
        return;
    }
    for (d = 0; d <= max_d; d++) {
        v_b += hist[d];
        m_b += hist[d] * d;
    }
    if (m_b >= 2)
        rate = b_hyp - log(at_least_eps(random_beta(bitgen, theta + 1.0, (double)(m_b - 1))));

    n_y = v_b - 1;
    for (i = 1; i <= n_y; i++)
        sum_y += random_standard_uniform(bitgen) < theta / (theta + alpha * (double)i);

    if (max_d > 1) {
        memset(&binomial, 0, sizeof binomial);
        n_j = v_b - hist[0] - hist[1];
        for (i = 1; i < max_d; i++) {
            sum_not_z += random_binomial(bitgen, (1.0 - alpha) / ((double)i - alpha), n_j,
                                         &binomial);
            n_j -= hist[i + 1];
        }
    }

    *theta_io = at_least_eps(random_gamma(bitgen, a_hyp + (double)sum_y, 1.0 / rate));
    *alpha_io = clip_alpha(random_beta(bitgen, c_hyp + (double)(n_y - sum_y),
                                       d_hyp + (double)sum_not_z));
}

/* bvcm_aux on block b of the state, in place: its degree-histogram row
 * and its alpha[b] and theta[b], with the priors and the bit generator
 * bound there. */
void bvcm_aux_block(const SweepState *s, int64_t b)
{
    bvcm_aux(s->bitgen, s->deg_hist + b * s->hist_width, s->hist_width, s->prior,
             s->alpha + b, s->theta + b);
}

/* ---- the degree table (GibbsSampler._refresh_deg_table) */

/* log (1 - alpha_b)_{d-1} = lgamma(d - alpha_b) - lgamma(1 - alpha_b)
 * into la_deg[b, d] for every degree d that occurs. */
void bvcm_deg_table(const SweepState *s)
{
    int64_t b, j;
    for (b = 0; b < s->k; b++) {
        const double a = s->alpha[b], base = bvcm_lgamma(1.0 - a);
        double *row = s->la_deg + b * s->hist_width;
        for (j = 0; j < s->n_degrees; j++)
            row[s->degrees[j]] = memo_lgamma(s, (double)s->degrees[j] - a) - base;
    }
}

/* ---- the mixing-matrix redraw (GibbsSampler.update_propensity) */

/* Generator.dirichlet(conc) into out[0..k-1], numpy's two branches
 * (numpy/random/_generator.pyx): when every concentration is below 0.1,
 * stick-breaking with Beta draws against the right-to-left cumulative
 * sums, else standard-gamma draws in component order, each times one
 * over their left-to-right sum. */
static void dirichlet(bitgen_t *bitgen, const double *conc, int64_t k, double *out)
{
    double mx = conc[0], acc;
    int64_t j;
    for (j = 1; j < k; j++)
        if (conc[j] > mx)
            mx = conc[j];
    if (mx < 0.1) {
        double cs[k];
        acc = 0.0;
        for (j = k - 1; j >= 0; j--) {
            acc += conc[j];
            cs[j] = acc;
        }
        for (j = 0; j < k; j++)
            out[j] = 0.0;
        if (!(acc > 0.0))
            return;
        acc = 1.0;
        for (j = 0; j < k - 1; j++) {
            const double v = random_beta(bitgen, conc[j], cs[j + 1]);
            out[j] = acc * v;
            acc *= 1.0 - v;
            if (cs[j + 1] == 0.0)
                break;
        }
        out[k - 1] = acc;
        return;
    }
    acc = 0.0;
    for (j = 0; j < k; j++) {
        out[j] = random_standard_gamma(bitgen, conc[j]);
        acc = acc + out[j];
    }
    acc = 1.0 / acc;
    for (j = 0; j < k; j++)
        out[j] = out[j] * acc;
}

/* Row b of the mixing matrix from Dirichlet(pair[b, :] + zeta), rows in
 * order, and its log floored at 1e-12 into log_prop. */
void bvcm_propensity(const SweepState *s)
{
    const int64_t k = s->k;
    double conc[k];
    int64_t b, j;
    for (b = 0; b < k; b++) {
        double *row = s->prop + b * k;
        for (j = 0; j < k; j++)
            conc[j] = (double)s->pair[b * k + j] + s->recv_conc;
        dirichlet(s->bitgen, conc, k, row);
        for (j = 0; j < k; j++)
            s->log_prop[b * k + j] = log(at_least_eps(row[j]));
    }
}

/* ---- the log-probability (likelihood.log_prob_from_stats) */

/* Port of msum, math.fsum in CPython's Modules/mathmodule.c (Shewchuk
 * 1997, "Adaptive precision floating-point arithmetic and fast robust
 * geometric predicates", with CPython's half-even correction across
 * partials), for finite addends and sums, which is all the model has.
 * The total is the correctly rounded sum, so it does not depend on the
 * order of the addends.  The partials do not overlap, so their leading
 * bits differ, and a double has 2098 bit positions. */
#define FSUM_MAX 2098

typedef struct {
    int64_t n;
    double p[FSUM_MAX];
} Fsum;

static void fsum_add(Fsum *f, double x)
{
    int64_t i, j;
    double y, t, hi, lo;
    for (i = j = 0; j < f->n; j++) {
        y = f->p[j];
        if (fabs(x) < fabs(y)) {
            t = x;
            x = y;
            y = t;
        }
        hi = x + y;
        lo = y - (hi - x);
        if (lo != 0.0)
            f->p[i++] = lo;
        x = hi;
    }
    f->n = i;
    if (x != 0.0)
        f->p[f->n++] = x;
}

static double fsum_total(const Fsum *f)
{
    int64_t n = f->n;
    double x, y, yr, hi = 0.0, lo = 0.0;
    if (n > 0) {
        hi = f->p[--n];
        /* sum the partials from the top; stop when the sum is inexact */
        while (n > 0) {
            x = hi;
            y = f->p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* half-even rounding across the remaining partials */
        if (n > 0 && ((lo < 0.0 && f->p[n - 1] < 0.0) || (lo > 0.0 && f->p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}

/* math.fsum(x[0..n-1]) */
double bvcm_fsum(const double *x, int64_t n)
{
    Fsum acc;
    int64_t i;
    acc.n = 0;
    for (i = 0; i < n; i++)
        fsum_add(&acc, x[i]);
    return fsum_total(&acc);
}

/* log x(x+1)...(x+n-1), exactly 0 at n = 0 (likelihood._log_rising) */
static double log_rising(double x, int64_t n)
{
    return n ? bvcm_lgamma(x + (double)n) - bvcm_lgamma(x) : 0.0;
}

/* Block b's log Pitman-Yor EPPF from its degree-histogram row
 * (likelihood.block_eppf), node count and total degree from block_sizes
 * and block_deg: the same addends, through acc.  A node's degree is one
 * that occurs, so the row is read at those columns. */
static double block_eppf(const SweepState *s, int64_t b, Fsum *acc)
{
    const int64_t *row = s->deg_hist + b * s->hist_width;
    const int64_t v = s->block_sizes[b], total = s->block_deg[b];
    const double a = s->alpha[b], t = s->theta[b];
    double base;
    int64_t d, i, j;
    if (!v)
        return 0.0;
    acc->n = 0;
    for (i = 1; i < v; i++)
        fsum_add(acc, log(t + a * (double)i));
    fsum_add(acc, -log_rising(t + 1.0, total - 1));
    base = bvcm_lgamma(1.0 - a);
    for (j = 0; j < s->n_degrees; j++) {
        d = s->degrees[j];
        if (row[d])
            fsum_add(acc, (double)row[d] * (memo_lgamma(s, (double)d - a) - base));
    }
    return fsum_total(acc);
}

/* Collapsed log-probability of the state's counts and (alpha, theta),
 * the value of likelihood.log_prob_from_stats: the same addends, summed
 * in the same groups (each term, each block's EPPF, then the three
 * terms). */
double bvcm_log_prob(const SweepState *s)
{
    const int64_t k = s->k;
    Fsum acc, eppf;
    double term_block, term_nodes, term_prop;
    int64_t b, j, m = 0, row_sum;

    acc.n = 0;
    for (b = 0; b < k; b++) {
        fsum_add(&acc, log_rising(s->block_conc, s->initiations[b]));
        m += s->initiations[b];
    }
    fsum_add(&acc, -log_rising((double)k * s->block_conc, m));
    term_block = fsum_total(&acc);

    acc.n = 0;
    for (b = 0; b < k; b++)
        fsum_add(&acc, block_eppf(s, b, &eppf));
    term_nodes = fsum_total(&acc);

    acc.n = 0;
    for (b = 0; b < k; b++) {
        row_sum = 0;
        for (j = 0; j < k; j++) {
            fsum_add(&acc, log_rising(s->recv_conc, s->pair[b * k + j]));
            row_sum += s->pair[b * k + j];
        }
        fsum_add(&acc, -log_rising((double)k * s->recv_conc, row_sum));
    }
    term_prop = fsum_total(&acc);

    acc.n = 0;
    fsum_add(&acc, term_block);
    fsum_add(&acc, term_nodes);
    fsum_add(&acc, term_prop);
    return fsum_total(&acc);
}
