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
 * Built by repro.core.native with plain -O2: no -ffast-math, the standardise
 * step is a true IEEE divide, so outputs are bit-identical to NumPy.
 */
#include <stddef.h>
#include <stdint.h>

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
 * out.  Emits ((double)popcount - mean) / std. */
int grng_forward(const uint64_t *state, uint64_t *new_state, int64_t *last_pc,
                 size_t rows, size_t n_words, const int32_t *shifts,
                 size_t stride_words, size_t count, double mean, double std,
                 double *out)
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
