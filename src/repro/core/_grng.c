/* Streaming GRNG kernel: LFSR shift + window popcount + CLT standardise in
 * one pass per register row.  It only runs forward: an earlier register state
 * is a jump -- an XOR of windows of a short forward run -- and reversed
 * retrieval is a forward run from it, both in one call (grng_forward's
 * jump argument).
 *
 * A register row is n_words 64-bit words (bit j of the register at bit j % 64
 * of word j / 64).  The recurrence b(t) = XOR_p b(t - p) runs 64 bits at a
 * time through an L1-sized scratch window whose first n_words words are the
 * history, so the bit sequence is never stored: per emitted value a row
 * produces stride_words new words, keeps a running window popcount (entering
 * word minus leaving word) and writes one output.  The tap geometry arrives
 * as a shift table derived in Python (repro.core.backend), whose `supports`
 * predicate guards every limit checked below.
 *
 * Generation has two bodies with identical results: the row body
 * (one register row at a time, portable C) and, on x86-64 CPUs with
 * AVX-512F/DQ, VPOPCNTDQ and VBMI2, the lane body, which runs eight rows -- one per
 * Monte-Carlo sample -- as the eight 64-bit lanes of one vector, for the
 * paper's 256-bit register at strides of whole registers.  The lane
 * body is compiled for that ISA through a per-function target attribute and
 * chosen at run time, so the library's own flags stay generic (whole-library
 * AVX-512 code generation slows the conv kernels in the same object).
 *
 * Generation can also hand its values straight to the sampler: given
 * a layer's mu and sigma (one value per column k, shared by every row) it
 * writes the sampled weights eps * sigma[k] + mu[k] into w, and writes the
 * epsilons into out only when out is not NULL.  Each sigma is checked as it
 * is read; a negative one stops the call with status -2, and the outputs are
 * then unspecified (the caller commits nothing of them).
 *
 * Built by repro.core.native with plain -O2 and -ffp-contract=off: no
 * -ffast-math, the standardise step is a true IEEE divide and the weight a
 * multiply then an add, so outputs are bit-identical to NumPy.
 */
#include <stddef.h>
#include <stdint.h>

/* The lane body needs a compiler that knows VPOPCNTDQ and VBMI2 (their
 * intrinsics, target attributes and __builtin_cpu_supports names): gcc 8 /
 * clang 8 on.  An
 * older one builds the row body alone and keeps the rest of the library. */
#if defined(__x86_64__) && (defined(__clang__) ? __clang_major__ >= 8        \
                                                : defined(__GNUC__) && __GNUC__ >= 8)
#include <immintrin.h>
#define GRNG_HAVE_LANES 1
#endif

#define GRNG_MAX_WORDS 16
#define GRNG_SCRATCH_WORDS 512

static inline int popcount64(uint64_t x) { return __builtin_popcountll(x); }

static inline uint64_t reverse64(uint64_t x)
{
    x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
    x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
    x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
    return __builtin_bswap64(x);
}

/* The word form of the recurrence (see forward_rows): sequence word i from
 * words i - W and i - W + 1 (a, b), for three in-word tap shifts. */
static inline uint64_t next_word(uint64_t a, uint64_t b, int s0, int s1, int s2)
{
    return a ^ (a >> s0 | b << (64 - s0)) ^ (a >> s1 | b << (64 - s1))
             ^ (a >> s2 | b << (64 - s2));
}

/* The jump back: with R = x^-N mod P (jump: n_words words, bit i the
 * coefficient of x^i), the register N shifts before a row's is the XOR of
 * the registers i shifts ahead of it, one per set bit i < n -- each a window
 * of one (n - 1)-shift forward run, so the jump too runs forward only.
 * Writes every row's earlier register into start (same layout as state). */
static void rewind_rows(const uint64_t *state, uint64_t *start, size_t rows,
                        size_t n_words, const int32_t *shifts,
                        const uint64_t *jump)
{
    for (size_t r = 0; r < rows; r++, state += n_words, start += n_words) {
        uint64_t h[2 * GRNG_MAX_WORDS], acc[GRNG_MAX_WORDS] = {0};
        for (size_t j = 0; j < n_words; j++)
            h[j] = reverse64(state[n_words - 1 - j]);
        for (size_t j = 0; j < n_words; j++)
            h[n_words + j] = next_word(h[j], h[j + 1], shifts[0], shifts[1], shifts[2]);
        for (size_t q = 0; q < n_words; q++) {
            for (uint64_t terms = jump[q]; terms; terms &= terms - 1) {
                int b = __builtin_ctzll(terms);
                const uint64_t *seq = h + q;
                for (size_t j = 0; j < n_words; j++)
                    acc[j] ^= b ? seq[j] >> b | seq[j + 1] << (64 - b) : seq[j];
            }
        }
        for (size_t j = 0; j < n_words; j++)
            start[n_words - 1 - j] = reverse64(acc[j]);
    }
}

/* Besides the tail tap n_bits every tap offset is n_bits - s with
 * 0 < s < 64 (`shifts`; three slots, i.e. polynomials of up to four taps), so
 * sequence word i is h[i-W] ^ XOR_s (h[i-W] >> s | h[i-W+1] << (64 - s)): it
 * needs only the words W and W-1 back (W = n_words >= 2).  Time order is oldest bit first,
 * i.e. the register read Rn..R1, hence the bit reversal on the way in and
 * out.  Emits ((double)popcount - mean) / std, and the weights when w is
 * given.  This is the row body; grng_forward runs it or the lane body. */
static int forward_rows(const uint64_t *state, uint64_t *new_state, size_t rows,
                        size_t n_words, const int32_t *shifts,
                        size_t stride_words, size_t count, double mean,
                        double std, double *out, const double *mu,
                        const double *sigma, double *w)
{
    const int s0 = shifts[0], s1 = shifts[1], s2 = shifts[2];
    for (size_t r = 0; r < rows; r++, state += n_words, new_state += n_words) {
        uint64_t h[GRNG_MAX_WORDS + GRNG_SCRATCH_WORDS];
        int32_t pc = 0;
        size_t k = 0, until_emit = stride_words, remaining = count * stride_words;
        for (size_t j = 0; j < n_words; j++) {
            h[j] = reverse64(state[n_words - 1 - j]);
            pc += popcount64(h[j]);
        }
        while (remaining) {
            size_t n = remaining < GRNG_SCRATCH_WORDS ? remaining : GRNG_SCRATCH_WORDS;
            for (size_t j = 0; j < n; j++) {
                uint64_t a = h[j], word = next_word(a, h[j + 1], s0, s1, s2);
                h[n_words + j] = word;
                pc += popcount64(word) - popcount64(a);
                if (--until_emit == 0) {
                    double eps = ((double)pc - mean) / std;
                    if (out)
                        *out++ = eps;
                    if (w) {
                        if (sigma[k] < 0)
                            return -2;
                        *w++ = eps * sigma[k] + mu[k];
                    }
                    k++;
                    until_emit = stride_words;
                }
            }
            for (size_t j = 0; j < n_words; j++)
                h[j] = h[n + j];
            remaining -= n;
        }
        for (size_t j = 0; j < n_words; j++)
            new_state[n_words - 1 - j] = reverse64(h[j]);
    }
    return 0;
}

#ifdef GRNG_HAVE_LANES
#define GRNG_LANES 8
#define GRNG_LANE_TARGET                                                       \
    __attribute__((target("avx512f,avx512dq,avx512vpopcntdq,avx512vbmi2")))

/* The forward word form of forward_rows, in every lane at once: each
 * a >> s | b << (64 - s) is one funnel shift (vpshrdvq, VBMI2) and the
 * four-way XOR one ternary-logic op plus one xor -- five ops per word where
 * separate shifts, ors and xors take twelve. */
GRNG_LANE_TARGET
static inline __m512i lane_word(__m512i a, __m512i b, const __m512i *shift)
{
    return _mm512_xor_si512(
        _mm512_ternarylogic_epi64(a, _mm512_shrdv_epi64(a, b, shift[0]),
                                  _mm512_shrdv_epi64(a, b, shift[1]), 0x96),
        _mm512_shrdv_epi64(a, b, shift[2]));
}

GRNG_LANE_TARGET
static inline __m512i lane_popcount(const __m512i *h)
{
    return _mm512_add_epi64(
        _mm512_add_epi64(_mm512_popcnt_epi64(h[0]), _mm512_popcnt_epi64(h[1])),
        _mm512_add_epi64(_mm512_popcnt_epi64(h[2]), _mm512_popcnt_epi64(h[3])));
}

/* One column: stride_words new words in every lane, then the standardised
 * popcount of the window -- after whole registers, exactly h[0..3]. */
GRNG_LANE_TARGET
static inline __m512d lane_column(__m512i *h, const __m512i *shift,
                                  size_t stride_words, __m512d mean, __m512d std)
{
    for (size_t t = 0; t < stride_words; t += 4) {
        h[0] = lane_word(h[0], h[1], shift);
        h[1] = lane_word(h[1], h[2], shift);
        h[2] = lane_word(h[2], h[3], shift);
        h[3] = lane_word(h[3], h[0], shift);
    }
    return _mm512_div_pd(_mm512_sub_pd(_mm512_cvtepi64_pd(lane_popcount(h)), mean), std);
}

/* In-register 8x8 transpose: e[c] holds column c of every lane on the way
 * in and lane c's eight columns on the way out. */
GRNG_LANE_TARGET
static inline void transpose8(__m512d *e)
{
    const __m512i even = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
    const __m512i odd = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
    __m512d t[8], u[8];
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm512_unpacklo_pd(e[i], e[i + 1]);
        t[i + 1] = _mm512_unpackhi_pd(e[i], e[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
        u[i] = _mm512_permutex2var_pd(t[i], even, t[i + 2]);
        u[i + 1] = _mm512_permutex2var_pd(t[i + 1], even, t[i + 3]);
        u[i + 2] = _mm512_permutex2var_pd(t[i], odd, t[i + 2]);
        u[i + 3] = _mm512_permutex2var_pd(t[i + 1], odd, t[i + 3]);
    }
    for (int i = 0; i < 4; i++) {
        e[i] = _mm512_shuffle_f64x2(u[i], u[i + 4], 0x44);
        e[i + 4] = _mm512_shuffle_f64x2(u[i], u[i + 4], 0xEE);
    }
}

/* The paper's 256-bit register at a stride of whole registers, up to eight
 * rows as the lanes of one vector: lane r runs row r, and when fewer than
 * eight rows are left the spare lanes run a duplicate of the last one, whose
 * results are dropped.  The four history words stay in vector registers,
 * and the standardise is the row body's subtract and divide, per lane in
 * IEEE double.  Columns go out in tiles of
 * eight, transposed in registers, so each real row takes one 64-byte store
 * of epsilons and one of weights (eps * sigma[k] + mu[k] for its eight k); a
 * last tile of fewer than eight columns stores under a mask.  On status -2
 * the outputs are unspecified: a tile is refused before any of it is
 * stored, where the row body stops at the column. */
GRNG_LANE_TARGET
static int forward_lanes(const uint64_t *state, uint64_t *new_state,
                         size_t lanes, const int32_t *shifts,
                         size_t stride_words, size_t count, double mean,
                         double std, double *out, const double *mu,
                         const double *sigma, double *w)
{
    uint64_t words[4][GRNG_LANES] __attribute__((aligned(64)));
    __m512i shift[3], h[4];
    for (int t = 0; t < 3; t++)
        shift[t] = _mm512_set1_epi64(shifts[t]);
    for (size_t r = 0; r < GRNG_LANES; r++) {
        size_t row = r < lanes ? r : lanes - 1;
        for (size_t j = 0; j < 4; j++)
            words[j][r] = reverse64(state[row * 4 + 3 - j]);
    }
    for (size_t j = 0; j < 4; j++)
        h[j] = _mm512_load_si512(words[j]);
    const __m512d vmean = _mm512_set1_pd(mean), vstd = _mm512_set1_pd(std);
    for (size_t k = 0; k < count; k += GRNG_LANES) {
        size_t n = count - k < GRNG_LANES ? count - k : GRNG_LANES;
        const __mmask8 tile = (__mmask8)((1u << n) - 1);
        __m512d e[GRNG_LANES], vsigma = _mm512_setzero_pd(), vmu = vsigma;
        for (size_t c = 0; c < GRNG_LANES; c++)
            e[c] = c < n ? lane_column(h, shift, stride_words, vmean, vstd) : vsigma;
        transpose8(e);
        if (w) {
            vsigma = _mm512_maskz_loadu_pd(tile, sigma + k);
            if (_mm512_mask_cmp_pd_mask(tile, vsigma, _mm512_setzero_pd(), _CMP_LT_OQ))
                return -2;
            vmu = _mm512_maskz_loadu_pd(tile, mu + k);
        }
        for (size_t r = 0; r < lanes; r++) {
            if (out)
                _mm512_mask_storeu_pd(out + r * count + k, tile, e[r]);
            if (w)
                _mm512_mask_storeu_pd(w + r * count + k, tile,
                                      _mm512_add_pd(_mm512_mul_pd(e[r], vsigma), vmu));
        }
    }
    for (size_t j = 0; j < 4; j++)
        _mm512_store_si512(words[j], h[j]);
    for (size_t r = 0; r < lanes; r++)
        for (size_t j = 0; j < 4; j++)
            new_state[r * 4 + 3 - j] = reverse64(words[j][r]);
    return 0;
}
#endif

/* 8 when grng_forward runs the lane body on this CPU (for the geometry and
 * row groups it takes), 1 when only the row body exists here. */
int grng_lane_width(void)
{
#ifdef GRNG_HAVE_LANES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vpopcntdq")
        && __builtin_cpu_supports("avx512vbmi2"))
        return GRNG_LANES;
#endif
    return 1;
}

/* Both entry points take the jump too: given jump (see rewind_rows), each
 * row first jumps back into start and the forward run starts there, so a
 * reversed retrieval -- start and end registers, values and weights -- is
 * one call.  jump == NULL runs forward from state and leaves start alone. */
int grng_forward_rows(const uint64_t *state, uint64_t *new_state, size_t rows,
                      size_t n_words, const int32_t *shifts,
                      size_t stride_words, size_t count, double mean,
                      double std, double *out, const double *mu,
                      const double *sigma, double *w, const uint64_t *jump,
                      uint64_t *start)
{
    if (n_words < 2 || n_words > GRNG_MAX_WORDS || stride_words < 1)
        return -1;
    if (jump) {
        rewind_rows(state, start, rows, n_words, shifts, jump);
        state = start;
    }
    return forward_rows(state, new_state, rows, n_words, shifts, stride_words,
                        count, mean, std, out, mu, sigma, w);
}

int grng_forward(const uint64_t *state, uint64_t *new_state, size_t rows,
                 size_t n_words, const int32_t *shifts, size_t stride_words,
                 size_t count, double mean, double std, double *out,
                 const double *mu, const double *sigma, double *w,
                 const uint64_t *jump, uint64_t *start)
{
    if (n_words < 2 || n_words > GRNG_MAX_WORDS || stride_words < 1)
        return -1;
    if (jump) {
        rewind_rows(state, start, rows, n_words, shifts, jump);
        state = start;
    }
#ifdef GRNG_HAVE_LANES
    /* The lane body takes the 256-bit register at whole-register strides;
     * a lone row costs a full vector pass, about twice the row body. */
    if (n_words == 4 && stride_words % 4 == 0 && grng_lane_width() == GRNG_LANES) {
        for (size_t r = 0; r < rows; r += GRNG_LANES) {
            size_t lanes = rows - r < GRNG_LANES ? rows - r : GRNG_LANES;
            double *out_r = out ? out + r * count : NULL;
            double *w_r = w ? w + r * count : NULL;
            int status = lanes == 1
                ? forward_rows(state + r * 4, new_state + r * 4, 1, 4, shifts,
                               stride_words, count, mean, std, out_r, mu,
                               sigma, w_r)
                : forward_lanes(state + r * 4, new_state + r * 4, lanes,
                                shifts, stride_words, count, mean, std, out_r,
                                mu, sigma, w_r);
            if (status)
                return status;
        }
        return 0;
    }
#endif
    return forward_rows(state, new_state, rows, n_words, shifts, stride_words,
                        count, mean, std, out, mu, sigma, w);
}
