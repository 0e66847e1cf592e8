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
                    /* at stride 1 a range check: no division per tap */
                    const int64_t up = h + p - row;
                    if (up < 0 || (s > 1 && up % s))
                        continue;
                    const int64_t oh = s > 1 ? up / s : up;
                    if (oh >= OH)
                        continue;
                    for (int64_t col = 0; col < k; col++) {
                        const int64_t left = w + p - col;
                        if (left < 0 || (s > 1 && left % s))
                            continue;
                        const int64_t ow = s > 1 ? left / s : left;
                        if (ow >= OW)
                            continue;
                        const double *src = cols + row * k + col
                            + ((n * OH + oh) * OW + ow) * width;
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

/* Two float64 lanes (vector extensions: SSE2 on x86-64); compares give 0 / -1 */
typedef double f64x2 __attribute__((vector_size(16)));
typedef int64_t i64x2 __attribute__((vector_size(16)));

/* g = N C H W | x strides | pool stride | out strides | argmax strides |
 * rectify.  Strict `>` keeps the first position on ties; a NaN replaces a
 * non-NaN best and is never replaced (np.argmax: first NaN wins).  Windows
 * start from a floor that no value at or under it replaces: -inf, or +0.0 to
 * pool np.maximum(x, 0.0), the ReLU before the pool.  Unit-stride channels go
 * in pairs without the NaN rule; a pixel that saw a NaN is redone exactly. */
int conv_maxpool_forward(const double *x, const int64_t *g, double *out,
                         int64_t *argmax)
{
    const int64_t N = g[0], C = g[1], H = g[2], W = g[3];
    const int64_t sn = g[4], sc = g[5], sh = g[6], sw = g[7];
    const int64_t pool = g[8], s = g[9];
    const int64_t on = g[10], oc = g[11], oh_ = g[12], ow_ = g[13];
    const int64_t an = g[14], ac = g[15], ah = g[16], aw = g[17];
    const double floor = g[18] ? 0.0 : from_bits(INT64_C(0xfff0000000000000));
    const int paired = sc == 1 && oc == 1 && ac == 1;
    const int64_t OH = out_size(H, pool, s, 0), OW = out_size(W, pool, s, 0);
    for (int64_t n = 0; n < N; n++)
        for (int64_t oh = 0; oh < OH; oh++)
            for (int64_t ow = 0; ow < OW; ow++) {
                const double *window = x + n * sn + oh * s * sh + ow * s * sw;
                double *o = out + n * on + oh * oh_ + ow * ow_;
                int64_t *a = argmax + n * an + oh * ah + ow * aw;
                int64_t c = 0;
                i64x2 nan = {0, 0};
                for (; paired && c + 2 <= C; c += 2) {
                    f64x2 best = {floor, floor};
                    i64x2 arg = {0, 0};
                    for (int64_t row = 0; row < pool; row++)
                        for (int64_t col = 0; col < pool; col++) {
                            const i64x2 k = {row * pool + col, row * pool + col};
                            f64x2 v;
                            memcpy(&v, window + c + row * sh + col * sw, sizeof v);
                            const i64x2 take = v > best;
                            nan |= v != v;
                            best = (f64x2)((take & (i64x2)v) | (~take & (i64x2)best));
                            arg = (take & k) | (~take & arg);
                        }
                    memcpy(o + c, &best, sizeof best);
                    memcpy(a + c, &arg, sizeof arg);
                }
                if (nan[0] | nan[1])
                    c = 0;
                /* mask selects, not branches: on post-ReLU data "is it
                 * larger" is a coin flip */
                for (; c < C; c++) {
                    double best = floor;
                    int64_t arg = 0;
                    for (int64_t row = 0; row < pool; row++)
                        for (int64_t col = 0; col < pool; col++) {
                            const double v = window[c * sc + row * sh + col * sw];
                            const int64_t take =
                                -(int64_t)((v > best) | ((v != v) & (best == best)));
                            best = from_bits((bits(v) & take) | (bits(best) & ~take));
                            arg = ((row * pool + col) & take) | (arg & ~take);
                        }
                    o[c * oc] = best;
                    a[c * ac] = arg;
                }
            }
    return 0;
}

/* g = N C H W | grad strides | pool stride | argmax strides | out strides |
 * mask strides | S.  `+=` into zeros in (oh, ow) order: a -0.0 gradient
 * lands as +0.0 and overlapping windows accumulate in np.add.at's order.  An
 * argmax outside the window selects nothing, as in the reference's masked
 * writes (nothing out of bounds is ever written).  A `mask` (the ReLU's
 * input) then multiplies each sum by (mask > 0.0).  Windows that tile the
 * input, with unit-stride channel pairs: one pass writes every position once.
 * `sums` (S > 0, C-contiguous (S, C)) gets each of S equal batch slices'
 * per-channel sum of what is written, added in (n, h, w) order onto +0.0:
 * np.sum(axis=0) over the slice's (rows, C) view adds row after row onto
 * add's identity, so an all -0.0 channel sums to +0.0.  Both paths
 * therefore write in (n, h, w) order. */
int conv_maxpool_backward(const double *grad, const int64_t *argmax,
                          const int64_t *g, double *out, const double *mask,
                          double *sums)
{
    const int64_t N = g[0], C = g[1], H = g[2], W = g[3];
    const int64_t gn = g[4], gc = g[5], gh = g[6], gw = g[7];
    const int64_t pool = g[8], s = g[9];
    const int64_t an = g[10], ac = g[11], ah = g[12], aw = g[13];
    const int64_t on = g[14], oc = g[15], oh_ = g[16], ow_ = g[17];
    const int64_t mn = g[18], mc = g[19], mh = g[20], mw = g[21];
    const int64_t per = sums && N ? N / g[22] : 1;  /* images per slice */
    const int64_t OH = out_size(H, pool, s, 0), OW = out_size(W, pool, s, 0);
    const f64x2 zero = {0.0, 0.0}, one = {1.0, 1.0};
    for (int64_t i = 0; sums && i < g[22] * C; i++)
        sums[i] = 0.0;
    if (s == pool && OH * s == H && OW * s == W && C % 2 == 0 && oc == 1
        && (!mask || mc == 1)) {
        for (int64_t n = 0; n < N; n++) {
            double *acc = sums ? sums + n / per * C : NULL;
            for (int64_t oh = 0; oh < OH; oh++)
                for (int64_t row = 0; row < pool; row++)
                    for (int64_t ow = 0; ow < OW; ow++)
                        for (int64_t c = 0; c < C; c += 2) {
                            const double *gr = grad + n * gn + oh * gh + ow * gw + c * gc;
                            const int64_t *a = argmax + n * an + oh * ah + ow * aw + c * ac;
                            const int64_t at = n * on + (oh * s + row) * oh_ + ow * s * ow_ + c;
                            const int64_t mat = n * mn + (oh * s + row) * mh + ow * s * mw + c;
                            const f64x2 sum = (f64x2){gr[0], gr[gc]} + zero;
                            const i64x2 arg = {a[0], a[ac]};
                            f64x2 total = zero;
                            if (acc)
                                memcpy(&total, acc + c, sizeof total);
                            for (int64_t col = 0; col < pool; col++) {
                                const i64x2 k = {row * pool + col, row * pool + col};
                                f64x2 v = (f64x2)((arg == k) & (i64x2)sum), m;
                                if (mask) {
                                    memcpy(&m, mask + mat + col * mw, sizeof m);
                                    v = v * (f64x2)((m > zero) & (i64x2)one);
                                }
                                memcpy(out + at + col * ow_, &v, sizeof v);
                                total = total + v;
                            }
                            if (acc)
                                memcpy(acc + c, &total, sizeof total);
                        }
        }
        return 0;
    }
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
    for (int64_t n = 0; (mask || sums) && n < N; n++) {
        double *acc = sums ? sums + n / per * C : NULL;
        for (int64_t h = 0; h < H; h++)
            for (int64_t w = 0; w < W; w++)
                for (int64_t c = 0; c < C; c++) {
                    double *o = out + n * on + h * oh_ + w * ow_ + c * oc;
                    if (mask)
                        *o *= (double)(mask[n * mn + h * mh + w * mw + c * mc] > 0.0);
                    if (acc)
                        acc[c] += *o;
                }
    }
    return 0;
}
