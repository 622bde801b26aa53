/* Compiled validation kernels, loaded by repro.backend.native via ctypes.
 * Both walk the CSR layout of one context: class c spans
 * [offsets[c], offsets[c + 1]).  A negative limit means "no budget". */
#include <stdint.h>

/* Algorithm 2 count: sum of len - LNDS over classes of b, each ordered by
 * [A ASC, B ASC].  Dirty classes run the bisect_right patience pass from
 * their clean prefix; once count + consumed - tails_len (a lower bound)
 * exceeds limit, return limit + 1 (over budget).  tails: longest class. */
int64_t repro_oc_lnds_count(const int64_t *b, const int64_t *offsets,
                            int64_t num_classes, int64_t limit, int64_t *tails)
{
    int64_t count = 0;
    for (int64_t c = 0; c < num_classes; c++) {
        const int64_t start = offsets[c], end = offsets[c + 1];
        int64_t i = start + 1, len;
        while (i < end && b[i - 1] <= b[i])
            i++;
        if (i >= end)
            continue;
        for (len = 0; len < i - start; len++)
            tails[len] = b[start + len];
        for (; i < end; i++) {
            int64_t lo = 0, hi = len;
            while (lo < hi) {
                const int64_t mid = (lo + hi) >> 1;
                if (tails[mid] <= b[i]) lo = mid + 1; else hi = mid;
            }
            tails[lo] = b[i];
            if (lo == len) {
                len++;
            } else if (limit >= 0 && count + (i + 1 - start) - len > limit) {
                return limit + 1;
            }
        }
        count += (end - start) - len;
    }
    return count;
}

/* TANE g3 rows: per class keep the most frequent of values (rank of rows[i];
 * ties go to the first seen), write the other rows to out and return their
 * number, stopping after the class whose rows take the total past limit.
 * freq: zeroed scratch indexed by rank, zero again on return. */
int64_t repro_ofd_g3_rows(const int32_t *values, const int64_t *rows,
                          const int64_t *offsets, int64_t num_classes,
                          int64_t limit, int64_t *freq, int64_t *out)
{
    int64_t written = 0;
    for (int64_t c = 0; c < num_classes; c++) {
        const int64_t start = offsets[c], end = offsets[c + 1];
        int64_t best = 0, i;
        for (i = start; i < end; i++)
            if (++freq[values[i]] > best)
                best = freq[values[i]];
        for (i = start; i < end && freq[values[i]] != best; i++)
            ;
        const int32_t keep = i < end ? values[i] : 0;
        for (i = start; i < end; i++) {
            freq[values[i]] = 0;
            if (values[i] != keep)
                out[written++] = rows[i];
        }
        if (limit >= 0 && written > limit)
            return written;
    }
    return written;
}
