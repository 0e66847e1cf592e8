/* Streaming GRNG kernel: LFSR shift + window popcount + CLT standardise in
 * one pass per register row, forward and literally reversed.
 *
 * A register row is n_words 64-bit words (bit j of the register at bit j % 64
 * of word j / 64).  The recurrence b(t) = XOR_p b(t - p) runs 64 bits at a
 * time through an L1-sized scratch window whose first n_words words are the
 * history, so the bit sequence is never stored: per emitted value a row
 * produces stride_words new words, keeps a running window popcount (entering
 * word minus leaving word) and writes one output.  The tap geometry arrives
 * as arrays derived in Python (repro.core.backend), whose `supports`
 * predicate guards every limit checked below.
 *
 * Forward generation has two bodies with identical results: the row body
 * (one register row at a time, portable C) and, on x86-64 CPUs with
 * AVX-512F/DQ and VPOPCNTDQ, the lane body, which runs eight rows -- one per
 * Monte-Carlo sample -- as the eight 64-bit lanes of one vector, for the
 * paper's 256-bit register at strides of whole registers.  The lane
 * body is compiled for that ISA through a per-function target attribute and
 * chosen at run time, so the library's own flags stay generic (whole-library
 * AVX-512 code generation slows the conv kernels in the same object).
 *
 * Built by repro.core.native with plain -O2: no -ffast-math, the standardise
 * step is a true IEEE divide, so outputs are bit-identical to NumPy.
 */
#include <stddef.h>
#include <stdint.h>

/* The lane body needs a compiler that knows VPOPCNTDQ (its intrinsics, the
 * target attribute and __builtin_cpu_supports name): gcc 8 / clang 8 on.  An
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

/* Forward: besides the tail tap n_bits every tap offset is n_bits - s with
 * 0 < s < 64 (`shifts`; three slots, i.e. polynomials of up to four taps), so
 * sequence word i is h[i-W] ^ XOR_s (h[i-W] >> s | h[i-W+1] << (64 - s)): it
 * needs only the words W and W-1 back (W = n_words >= 2).  Time order is oldest bit first,
 * i.e. the register read Rn..R1, hence the bit reversal on the way in and
 * out.  Emits ((double)popcount - mean) / std.  This is the row body;
 * grng_forward below runs it or the lane body. */
int grng_forward_rows(const uint64_t *state, uint64_t *new_state,
                      int64_t *last_pc, size_t rows, size_t n_words,
                      const int32_t *shifts, size_t stride_words, size_t count,
                      double mean, double std, double *out)
{
    const int s0 = shifts[0], s1 = shifts[1], s2 = shifts[2];
    if (n_words < 2 || n_words > GRNG_MAX_WORDS || stride_words < 1)
        return -1;
    for (size_t r = 0; r < rows; r++, state += n_words, new_state += n_words) {
        uint64_t h[GRNG_MAX_WORDS + GRNG_SCRATCH_WORDS];
        int32_t pc = 0;
        size_t until_emit = stride_words, remaining = count * stride_words;
        for (size_t j = 0; j < n_words; j++) {
            h[j] = reverse64(state[n_words - 1 - j]);
            pc += popcount64(h[j]);
        }
        while (remaining) {
            size_t n = remaining < GRNG_SCRATCH_WORDS ? remaining : GRNG_SCRATCH_WORDS;
            for (size_t j = 0; j < n; j++) {
                uint64_t a = h[j], b = h[j + 1];
                uint64_t w = a ^ (a >> s0 | b << (64 - s0))
                               ^ (a >> s1 | b << (64 - s1))
                               ^ (a >> s2 | b << (64 - s2));
                h[n_words + j] = w;
                pc += popcount64(w) - popcount64(a);
                if (--until_emit == 0) {
                    *out++ = ((double)pc - mean) / std;
                    until_emit = stride_words;
                }
            }
            for (size_t j = 0; j < n_words; j++)
                h[j] = h[n + j];
            remaining -= n;
        }
        for (size_t j = 0; j < n_words; j++)
            new_state[n_words - 1 - j] = reverse64(h[j]);
        last_pc[r] = pc;
    }
    return 0;
}

#ifdef GRNG_HAVE_LANES
#define GRNG_LANES 8
#define GRNG_LANE_TARGET __attribute__((target("avx512f,avx512dq,avx512vpopcntdq")))

/* The forward word form of grng_forward_rows, in every lane at once. */
GRNG_LANE_TARGET
static inline __m512i lane_word(__m512i a, __m512i b, const __m128i *right,
                                const __m128i *left)
{
    return a ^ (_mm512_srl_epi64(a, right[0]) | _mm512_sll_epi64(b, left[0]))
             ^ (_mm512_srl_epi64(a, right[1]) | _mm512_sll_epi64(b, left[1]))
             ^ (_mm512_srl_epi64(a, right[2]) | _mm512_sll_epi64(b, left[2]));
}

GRNG_LANE_TARGET
static inline __m512i lane_popcount(__m512i h0, __m512i h1, __m512i h2, __m512i h3)
{
    return _mm512_add_epi64(
        _mm512_add_epi64(_mm512_popcnt_epi64(h0), _mm512_popcnt_epi64(h1)),
        _mm512_add_epi64(_mm512_popcnt_epi64(h2), _mm512_popcnt_epi64(h3)));
}

/* The paper's 256-bit register at a stride of whole registers, up to eight
 * rows as the lanes of one vector: lane r runs row r, and when fewer than
 * eight rows are left the spare lanes run a duplicate of the last one, whose
 * results are dropped (the masked scatter never writes them).  The four
 * history words stay in vector registers: after each register's worth of new
 * words the window is exactly those words, so its popcount is their sum.  The
 * standardise is the row body's subtract and divide, per lane in IEEE double. */
GRNG_LANE_TARGET
static void forward_lanes(const uint64_t *state, uint64_t *new_state,
                          int64_t *last_pc, size_t lanes, const int32_t *shifts,
                          size_t stride_words, size_t count, double mean,
                          double std, double *out)
{
    uint64_t words[4][GRNG_LANES] __attribute__((aligned(64)));
    int64_t index[GRNG_LANES], lane_pc[GRNG_LANES] __attribute__((aligned(64)));
    __m128i right[3], left[3];
    for (int t = 0; t < 3; t++) {
        right[t] = _mm_cvtsi32_si128(shifts[t]);
        left[t] = _mm_cvtsi32_si128(64 - shifts[t]);
    }
    for (size_t r = 0; r < GRNG_LANES; r++) {
        size_t row = r < lanes ? r : lanes - 1;
        index[r] = (int64_t)(row * count);
        for (size_t j = 0; j < 4; j++)
            words[j][r] = reverse64(state[row * 4 + 3 - j]);
    }
    const __mmask8 real = (__mmask8)((1u << lanes) - 1);
    const __m512i at = _mm512_loadu_si512(index);
    const __m512d vmean = _mm512_set1_pd(mean), vstd = _mm512_set1_pd(std);
    __m512i h0 = _mm512_load_si512(words[0]), h1 = _mm512_load_si512(words[1]);
    __m512i h2 = _mm512_load_si512(words[2]), h3 = _mm512_load_si512(words[3]);
    __m512i pc = lane_popcount(h0, h1, h2, h3);
    for (size_t k = 0; k < count; k++) {
        for (size_t t = 0; t < stride_words; t += 4) {
            h0 = lane_word(h0, h1, right, left);
            h1 = lane_word(h1, h2, right, left);
            h2 = lane_word(h2, h3, right, left);
            h3 = lane_word(h3, h0, right, left);
        }
        pc = lane_popcount(h0, h1, h2, h3);
        _mm512_mask_i64scatter_pd(out++, real, at,
            _mm512_div_pd(_mm512_sub_pd(_mm512_cvtepi64_pd(pc), vmean), vstd), 8);
    }
    _mm512_store_si512(lane_pc, pc);
    _mm512_store_si512(words[0], h0);
    _mm512_store_si512(words[1], h1);
    _mm512_store_si512(words[2], h2);
    _mm512_store_si512(words[3], h3);
    for (size_t r = 0; r < lanes; r++) {
        for (size_t j = 0; j < 4; j++)
            new_state[r * 4 + 3 - j] = reverse64(words[j][r]);
        last_pc[r] = lane_pc[r];
    }
}
#endif

/* 8 when grng_forward runs the lane body on this CPU (for the geometry and
 * row groups it takes), 1 when only the row body exists here. */
int grng_lane_width(void)
{
#ifdef GRNG_HAVE_LANES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vpopcntdq"))
        return GRNG_LANES;
#endif
    return 1;
}

int grng_forward(const uint64_t *state, uint64_t *new_state, int64_t *last_pc,
                 size_t rows, size_t n_words, const int32_t *shifts,
                 size_t stride_words, size_t count, double mean, double std,
                 double *out)
{
    if (n_words < 2 || n_words > GRNG_MAX_WORDS || stride_words < 1)
        return -1;
#ifdef GRNG_HAVE_LANES
    /* The lane body takes the 256-bit register at whole-register strides;
     * a lone row costs a full vector pass, about twice the row body. */
    if (n_words == 4 && stride_words % 4 == 0 && grng_lane_width() == GRNG_LANES) {
        for (size_t r = 0; r < rows; r += GRNG_LANES) {
            size_t lanes = rows - r < GRNG_LANES ? rows - r : GRNG_LANES;
            if (lanes == 1)
                grng_forward_rows(state + r * 4, new_state + r * 4, last_pc + r, 1,
                                  4, shifts, stride_words, count, mean, std,
                                  out + r * count);
            else
                forward_lanes(state + r * 4, new_state + r * 4, last_pc + r, lanes,
                              shifts, stride_words, count, mean, std,
                              out + r * count);
        }
        return 0;
    }
#endif
    return grng_forward_rows(state, new_state, last_pc, rows, n_words, shifts,
                             stride_words, count, mean, std, out);
}

/* Literal reverse: the mirrored taps are n_bits plus three small offsets
 * m < 64, which reach into the word being produced.  With p the previous
 * word, C = h[i-W] ^ XOR_m (p >> (64 - m)) (`carries` holds 64 - m) and
 * q = SUM_m x^m, the new word y solves y = C ^ SUM_m (y << m), i.e.
 * y = (1 + q)^-1 C mod x^64, and over GF(2) (1 + q)^-1 = PROD_k (1 + q^(2^k))
 * with q^(2^k) = SUM_m x^(m 2^k): one shift-XOR line per squaring level
 * (`level_shifts`, `level_sizes` of them each).  The chain is sequential
 * across words, so two rows share each loop for instruction-level
 * parallelism; an odd last row pairs with itself and its duplicate results
 * are dropped.  Time order is R1..Rn: no bit reversal.  Emits int32
 * popcounts of the successively earlier patterns. */
int grng_reverse(const uint64_t *state, uint64_t *new_state, int64_t *last_pc,
                 size_t rows, size_t n_words, const int32_t *carries,
                 const int32_t *level_shifts, const int32_t *level_sizes,
                 size_t n_levels, size_t stride_words, size_t count,
                 int32_t *out)
{
    const int c0 = carries[0], c1 = carries[1], c2 = carries[2];
    if (n_words < 1 || n_words > GRNG_MAX_WORDS || stride_words < 1)
        return -1;
    for (size_t r = 0; r < rows; r += 2) {
        int paired = r + 1 < rows;
        const uint64_t *state_a = state + r * n_words;
        const uint64_t *state_b = paired ? state_a + n_words : state_a;
        int32_t *out_a = out + r * count;
        int32_t *out_b = paired ? out_a + count : out_a;
        uint64_t ha[GRNG_MAX_WORDS + GRNG_SCRATCH_WORDS];
        uint64_t hb[GRNG_MAX_WORDS + GRNG_SCRATCH_WORDS];
        int32_t pca = 0, pcb = 0;
        size_t until_emit = stride_words, remaining = count * stride_words;
        for (size_t j = 0; j < n_words; j++) {
            ha[j] = state_a[j];
            hb[j] = state_b[j];
            pca += popcount64(ha[j]);
            pcb += popcount64(hb[j]);
        }
        uint64_t ya = ha[n_words - 1], yb = hb[n_words - 1];
        while (remaining) {
            size_t n = remaining < GRNG_SCRATCH_WORDS ? remaining : GRNG_SCRATCH_WORDS;
            for (size_t j = 0; j < n; j++) {
                const int32_t *shift = level_shifts;
                ya = ha[j] ^ ya >> c0 ^ ya >> c1 ^ ya >> c2;
                yb = hb[j] ^ yb >> c0 ^ yb >> c1 ^ yb >> c2;
                for (size_t level = 0; level < n_levels; level++) {
                    uint64_t ta = ya, tb = yb;
                    for (int32_t t = 0; t < level_sizes[level]; t++, shift++) {
                        ya ^= ta << *shift;
                        yb ^= tb << *shift;
                    }
                }
                pca += popcount64(ya) - popcount64(ha[j]);
                pcb += popcount64(yb) - popcount64(hb[j]);
                ha[n_words + j] = ya;
                hb[n_words + j] = yb;
                if (--until_emit == 0) {
                    *out_a++ = pca;
                    *out_b++ = pcb;
                    until_emit = stride_words;
                }
            }
            for (size_t j = 0; j < n_words; j++) {
                ha[j] = ha[n + j];
                hb[j] = hb[n + j];
            }
            remaining -= n;
        }
        for (size_t j = 0; j < n_words; j++) {
            new_state[r * n_words + j] = ha[j];
            if (paired)
                new_state[(r + 1) * n_words + j] = hb[j];
        }
        last_pc[r] = pca;
        if (paired)
            last_pc[r + 1] = pcb;
    }
    return 0;
}
