/* Conv data movement in one pass each: im2col, col2im, max-pool forward and
 * backward over float64 (N, C, H, W) tensors addressed through element
 * strides, so an NCHW-contiguous minibatch and an NCHW view of channels-last
 * storage both go through without a copy.  Every loop nest keeps the channel
 * innermost, the unit-stride axis of the channels-last storage the training
 * step carries.
 *
 * Each kernel takes one int64 geometry vector `g` laid out by its wrapper in
 * repro.core.backend, whose `supports` predicate guards dtype, alignment and
 * shape consistency; the kernels reproduce the NumPy reference's bytes by
 * construction (see the comment on each).  Built by repro.core.native with
 * -ffp-contract=off and no -ffast-math: the additions below happen in exactly
 * the order they are written.
 */
#include <stdint.h>
#include <string.h>

static inline int64_t out_size(int64_t size, int64_t kernel, int64_t stride,
                               int64_t padding)
{
    return (size + 2 * padding - kernel) / stride + 1;
}

/* g = N C H W | x strides | kernel stride padding.  cols is C-contiguous
 * (N * OH * OW, C * k * k): row (n, oh, ow), column (c, row, col), zero
 * where the window hangs over the padding. */
int conv_im2col(const double *x, const int64_t *g, double *cols)
{
    const int64_t N = g[0], C = g[1], H = g[2], W = g[3];
    const int64_t sn = g[4], sc = g[5], sh = g[6], sw = g[7];
    const int64_t k = g[8], s = g[9], p = g[10];
    const int64_t OH = out_size(H, k, s, p), OW = out_size(W, k, s, p);
    const int64_t kk = k * k, width = C * kk;
    for (int64_t n = 0; n < N; n++)
        for (int64_t oh = 0; oh < OH; oh++)
            for (int64_t ow = 0; ow < OW; ow++, cols += width)
                for (int64_t row = 0; row < k; row++) {
                    const int64_t h = oh * s + row - p;
                    for (int64_t col = 0; col < k; col++) {
                        const int64_t w = ow * s + col - p;
                        double *dst = cols + row * k + col;
                        if (h < 0 || h >= H || w < 0 || w >= W) {
                            for (int64_t c = 0; c < C; c++)
                                dst[c * kk] = 0.0;
                            continue;
                        }
                        const double *src = x + n * sn + h * sh + w * sw;
                        for (int64_t c = 0; c < C; c++)
                            dst[c * kk] = src[c * sc];
                    }
                }
    return 0;
}

/* g = N C H W | out strides | kernel stride padding.  The adjoint, as a
 * gather: every out[n, c, h, w] starts at +0.0 and adds its window
 * contributions in (row, col) order -- the order the reference's k * k
 * strided `+=` passes over a zeroed tensor give each element -- so nothing
 * is read back, padded or zeroed beforehand. */
int conv_col2im(const double *cols, const int64_t *g, double *out)
{
    const int64_t N = g[0], C = g[1], H = g[2], W = g[3];
    const int64_t sn = g[4], sc = g[5], sh = g[6], sw = g[7];
    const int64_t k = g[8], s = g[9], p = g[10];
    const int64_t OH = out_size(H, k, s, p), OW = out_size(W, k, s, p);
    const int64_t kk = k * k, width = C * kk;
    for (int64_t n = 0; n < N; n++)
        for (int64_t h = 0; h < H; h++)
            for (int64_t w = 0; w < W; w++) {
                double *dst = out + n * sn + h * sh + w * sw;
                for (int64_t c = 0; c < C; c++)
                    dst[c * sc] = 0.0;
                for (int64_t row = 0; row < k; row++) {
                    const int64_t up = h + p - row;
                    if (up < 0 || up % s || up / s >= OH)
                        continue;
                    for (int64_t col = 0; col < k; col++) {
                        const int64_t left = w + p - col;
                        if (left < 0 || left % s || left / s >= OW)
                            continue;
                        const double *src = cols + row * k + col
                            + ((n * OH + up / s) * OW + left / s) * width;
                        for (int64_t c = 0; c < C; c++)
                            dst[c * sc] += src[c * kk];
                    }
                }
            }
    return 0;
}

static inline int64_t bits(double value)
{
    int64_t word;
    memcpy(&word, &value, sizeof word);
    return word;
}

static inline double from_bits(int64_t word)
{
    double value;
    memcpy(&value, &word, sizeof value);
    return value;
}

/* g = N C H W | x strides | pool stride | out strides | argmax strides.
 * Strict `>` keeps the first position on ties; a NaN replaces a non-NaN
 * best and is never replaced, which is np.argmax's rule (first NaN wins). */
int conv_maxpool_forward(const double *x, const int64_t *g, double *out,
                         int64_t *argmax)
{
    const int64_t N = g[0], C = g[1], H = g[2], W = g[3];
    const int64_t sn = g[4], sc = g[5], sh = g[6], sw = g[7];
    const int64_t pool = g[8], s = g[9];
    const int64_t on = g[10], oc = g[11], oh_ = g[12], ow_ = g[13];
    const int64_t an = g[14], ac = g[15], ah = g[16], aw = g[17];
    const int64_t OH = out_size(H, pool, s, 0), OW = out_size(W, pool, s, 0);
    for (int64_t n = 0; n < N; n++)
        for (int64_t oh = 0; oh < OH; oh++)
            for (int64_t ow = 0; ow < OW; ow++) {
                const double *window = x + n * sn + oh * s * sh + ow * s * sw;
                double *restrict o = out + n * on + oh * oh_ + ow * ow_;
                int64_t *restrict a = argmax + n * an + oh * ah + ow * aw;
                for (int64_t c = 0; c < C; c++) {
                    o[c * oc] = window[c * sc];
                    a[c * ac] = 0;
                }
                for (int64_t row = 0; row < pool; row++)
                    for (int64_t col = !row; col < pool; col++) {
                        const double *xk = window + row * sh + col * sw;
                        /* mask selects, not branches: on post-ReLU data
                         * "is it larger" is a coin flip */
                        for (int64_t c = 0; c < C; c++) {
                            const double v = xk[c * sc], best = o[c * oc];
                            const int64_t take =
                                -(int64_t)((v > best) | ((v != v) & (best == best)));
                            o[c * oc] = from_bits((bits(v) & take) | (bits(best) & ~take));
                            a[c * ac] = ((row * pool + col) & take) | (a[c * ac] & ~take);
                        }
                    }
            }
    return 0;
}

/* g = N C H W | grad strides | pool stride | argmax strides | out strides.
 * `+=` into zeros in (oh, ow) order: a -0.0 gradient lands as +0.0 and
 * overlapping windows accumulate in np.add.at's order.  An argmax outside
 * the window selects nothing, as in the reference's masked writes (nothing
 * out of bounds is ever written). */
int conv_maxpool_backward(const double *grad, const int64_t *argmax,
                          const int64_t *g, double *out)
{
    const int64_t N = g[0], C = g[1], H = g[2], W = g[3];
    const int64_t gn = g[4], gc = g[5], gh = g[6], gw = g[7];
    const int64_t pool = g[8], s = g[9];
    const int64_t an = g[10], ac = g[11], ah = g[12], aw = g[13];
    const int64_t on = g[14], oc = g[15], oh_ = g[16], ow_ = g[17];
    const int64_t OH = out_size(H, pool, s, 0), OW = out_size(W, pool, s, 0);
    for (int64_t n = 0; n < N; n++)
        for (int64_t h = 0; h < H; h++)
            for (int64_t w = 0; w < W; w++) {
                double *o = out + n * on + h * oh_ + w * ow_;
                for (int64_t c = 0; c < C; c++)
                    o[c * oc] = 0.0;
            }
    for (int64_t n = 0; n < N; n++)
        for (int64_t oh = 0; oh < OH; oh++)
            for (int64_t ow = 0; ow < OW; ow++) {
                const double *gr = grad + n * gn + oh * gh + ow * gw;
                const int64_t *a = argmax + n * an + oh * ah + ow * aw;
                double *o = out + n * on + oh * s * oh_ + ow * s * ow_;
                for (int64_t c = 0; c < C; c++) {
                    const int64_t arg = a[c * ac];
                    if (arg < 0 || arg >= pool * pool)
                        continue;
                    o[c * oc + arg / pool * oh_ + arg % pool * ow_] += gr[c * gc];
                }
            }
    return 0;
}
