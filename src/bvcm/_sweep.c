/* Compiled single-site sweep of the B-VCM Gibbs sampler.
 *
 * The arithmetic is that of the Python sweep (gibbs._ListSweep.update
 * over log_weights_detached), in the same order, so both give
 * bit-identical chains: every sum runs left to right, no
 * multiply-add is fused (built with -ffp-contract=off), log and exp are
 * libm's as in Python's math module, and lgamma is a port of CPython's
 * own (libm's lgamma differs from math.lgamma in the last bits).
 *
 * The state layout mirrors bvcm._sweep.SweepState; arrays are numpy's,
 * row-major, with the mixing matrix and degree table flattened.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    int64_t n;             /* nodes */
    int64_t k;             /* blocks */
    int64_t deg_stride;    /* max degree + 1: row length of la_deg */
    double block_conc;     /* omega */
    int64_t *labels;       /* [n] */
    const int64_t *deg;    /* [n] appearances */
    const int64_t *node_inits;  /* [n] interactions initiated */
    const int64_t *self_pairs;  /* [n] self-addressed receptions */
    const int64_t *out_off, *out_idx;  /* CSR out-neighbours, loops excluded */
    const int64_t *in_off, *in_idx;    /* CSR in-neighbours, loops excluded */
    int64_t *block_n;      /* [k] nodes per block */
    int64_t *block_deg;    /* [k] total degree per block */
    int64_t *inits;        /* [k] initiations per block */
    int64_t *pair;         /* [k*k] sender-block x receiver-block counts */
    const double *log_prop;  /* [k*k] log mixing matrix */
    const double *la_deg;    /* [k*deg_stride] log (1 - alpha_b)_{d-1} */
    const double *alpha;     /* [k] */
    const double *theta;     /* [k] */
    const double *uniforms;  /* [n] one per node, in node order */
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

/* ---- the sweep */

static void detach(const SweepState *s, int64_t i)
{
    int64_t b = s->labels[i];
    s->block_n[b] -= 1;
    s->block_deg[b] -= s->deg[i];
    s->inits[b] -= s->node_inits[i];
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
        const int64_t vb = s->block_n[b], md = s->block_deg[b];
        double wb = 0.0;
        if (l_i)
            wb = bvcm_lgamma(omega + (double)s->inits[b] + (double)l_i)
                 - bvcm_lgamma(omega + (double)s->inits[b]);
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
        wb += s->la_deg[b * s->deg_stride + d_i];
        if (md)
            wb += bvcm_lgamma(th + (double)md) - bvcm_lgamma(th + (double)md + (double)d_i);
        else
            wb += bvcm_lgamma(th + 1.0) - bvcm_lgamma(th + (double)d_i);
        w[b] = wb;
    }
}

/* Put detached node i into block b (_ListSweep.reattach). */
static void reattach(const SweepState *s, int64_t i, int64_t b,
                     const int64_t *cnt_out, const int64_t *cnt_in)
{
    const int64_t k = s->k, old = s->labels[i], sp = s->self_pairs[i];
    int64_t b2;
    s->block_n[b] += 1;
    s->block_deg[b] += s->deg[i];
    s->inits[b] += s->node_inits[i];
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

/* One pass of single-node updates in node order, node i consuming
 * uniforms[i]; returns how many nodes changed block. */
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
        r = s->uniforms[i] * total;
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
