/* Compiled partition and validation kernels, loaded by repro.backend.native
 * via ctypes.  All walk the CSR layout of one partition or context: class c
 * spans [offsets[c], offsets[c + 1]).  A negative limit means "no budget". */
#include <stdint.h>
#include <stdlib.h>

/* TANE g3 rows: per class keep the most frequent rank of column[rows[i]]
 * (ties go to the first seen), write the other rows to out and return their
 * number, stopping after the class whose rows take the total past limit.
 * freq: zeroed scratch of num_ranks entries indexed by rank, zero again on
 * return.  Returns -1 on a negative rank, -2 on a rank >= num_ranks. */
int64_t repro_ofd_g3_rows(const int32_t *column, const int64_t *rows,
                          const int64_t *offsets, int64_t num_classes,
                          int64_t limit, int64_t *freq, int64_t num_ranks,
                          int64_t *out)
{
    int64_t written = 0;
    for (int64_t c = 0; c < num_classes; c++) {
        const int64_t start = offsets[c], end = offsets[c + 1];
        int64_t best = 0, i;
        for (i = start; i < end; i++) {
            const int32_t value = column[rows[i]];
            if (value < 0 || value >= num_ranks) {
                while (--i >= start)
                    freq[column[rows[i]]] = 0;
                return value < 0 ? -1 : -2;
            }
            if (++freq[value] > best)
                best = freq[value];
        }
        for (i = start; i < end && freq[column[rows[i]]] != best; i++)
            ;
        const int32_t keep = i < end ? column[rows[i]] : 0;
        for (i = start; i < end; i++) {
            const int32_t value = column[rows[i]];
            freq[value] = 0;
            if (value != keep)
                out[written++] = rows[i];
        }
        if (limit >= 0 && written > limit)
            return written;
    }
    return written;
}

/* Partition.product: split every class on the rank of its rows.  Rows ascend
 * within a class, so each (class, rank) group gets its rows in ascending
 * order; slot maps a rank to its group while one class is walked and is
 * cleared after it.  Groups of >= 2 rows are written as canonical CSR,
 * ordered by first row through a row-indexed owner scan (no sort).
 * ranks: num_rows entries, all in [0, num_ranks).  out_rows: room for every
 * input row; out_offsets: for total / 2 + 1 entries.  Returns the number of
 * classes written, -1 on a negative rank, -2 on a row outside the column,
 * -3 when scratch cannot be allocated. */
int64_t repro_partition_refine(const int64_t *rows, const int64_t *offsets,
                               int64_t num_classes, const int32_t *ranks,
                               int64_t num_rows, int64_t num_ranks,
                               int64_t *out_rows, int64_t *out_offsets)
{
    const int64_t total = offsets[num_classes];
    int64_t groups = 0, written = 0, pos = 0, lo = num_rows, hi = -1, i, g;
    /* per position: group; per group: size, first row (then write cursor);
     * per rank: group + 1 of the class being walked; per row: group + 1 */
    int64_t *scratch = calloc((size_t)(3 * total + num_ranks + num_rows),
                              sizeof *scratch);
    if (!scratch)
        return -3;
    int64_t *group = scratch, *size = group + total, *first = size + total;
    int64_t *slot = first + total, *owner = slot + num_ranks;
    for (int64_t c = 0; c < num_classes; c++) {
        const int64_t start = offsets[c], end = offsets[c + 1];
        for (i = start; i < end; i++) {
            const int64_t row = rows[i];
            if (row < 0 || row >= num_rows) {
                free(scratch);
                return -2;
            }
            const int32_t rank = ranks[row];
            if (rank < 0) {
                free(scratch);
                return -1;
            }
            if (!slot[rank]) {
                first[groups] = row;
                slot[rank] = ++groups;
            }
            group[i] = slot[rank] - 1;
            size[group[i]]++;
        }
        for (i = start; i < end; i++)
            slot[ranks[rows[i]]] = 0;
    }
    for (g = 0; g < groups; g++) {
        if (size[g] < 2)
            continue;
        owner[first[g]] = g + 1;
        if (first[g] < lo) lo = first[g];
        if (first[g] > hi) hi = first[g];
    }
    out_offsets[0] = 0;
    for (int64_t row = lo; row <= hi; row++) {
        if (!owner[row])
            continue;
        g = owner[row] - 1;
        first[g] = pos;
        pos += size[g];
        out_offsets[++written] = pos;
    }
    for (i = 0; i < total; i++)
        if (size[group[i]] >= 2)
            out_rows[first[group[i]]++] = rows[i];
    free(scratch);
    return written;
}

static int compare_keys(const void *x, const void *y)
{
    const uint64_t a = *(const uint64_t *)x, b = *(const uint64_t *)y;
    return (a > b) - (a < b);
}

/* Exact OC checks, many (A, B) column pairs over one context: per pair and
 * class, sort the keys (A << 32) | B (insertion sort for short classes,
 * qsort otherwise) and fail at the first class where B decreases.
 * columns: rank columns indexed by row; pairs: 2 column indexes (A, B) per
 * pair.  keys: room for the longest class.  out[p] = 1 when pair p holds.
 * Returns 0, or -1 on a negative rank. */
int64_t repro_oc_holds_batch(const int64_t *rows, const int64_t *offsets,
                             int64_t num_classes, const int32_t *const *columns,
                             const int64_t *pairs, int64_t num_pairs,
                             uint64_t *keys, int8_t *out)
{
    for (int64_t p = 0; p < num_pairs; p++) {
        const int32_t *a = columns[pairs[2 * p]], *b = columns[pairs[2 * p + 1]];
        int8_t holds = 1;
        for (int64_t c = 0; c < num_classes && holds; c++) {
            const int64_t start = offsets[c], n = offsets[c + 1] - start;
            int64_t i, j;
            for (i = 0; i < n; i++) {
                const int32_t x = a[rows[start + i]], y = b[rows[start + i]];
                if ((x | y) < 0)
                    return -1;
                keys[i] = (uint64_t)x << 32 | (uint32_t)y;
            }
            if (n <= 16) {
                for (i = 1; i < n; i++) {
                    const uint64_t key = keys[i];
                    for (j = i; j > 0 && keys[j - 1] > key; j--)
                        keys[j] = keys[j - 1];
                    keys[j] = key;
                }
            } else {
                qsort(keys, (size_t)n, sizeof *keys, compare_keys);
            }
            for (i = 1; i < n; i++) {
                if ((uint32_t)keys[i] < (uint32_t)keys[i - 1]) {
                    holds = 0;
                    break;
                }
            }
        }
        out[p] = holds;
    }
    return 0;
}

/* Bit width of x: the number of bits its value needs. */
static int bit_width(uint32_t x)
{
    int bits = 0;
    for (; x; x >>= 1)
        bits++;
    return bits;
}

/* Sort n keys ascending, all below 2^bits: insertion sort for short
 * classes, else an LSD radix sort on 8-bit digits that skips digits all
 * keys share.  swap: room for n keys.  Returns the array holding the
 * sorted keys (keys or swap). */
static uint64_t *sort_keys(uint64_t *keys, uint64_t *swap, int64_t n, int bits)
{
    int64_t i, j;
    if (n <= 32) {
        for (i = 1; i < n; i++) {
            const uint64_t key = keys[i];
            for (j = i; j > 0 && keys[j - 1] > key; j--)
                keys[j] = keys[j - 1];
            keys[j] = key;
        }
        return keys;
    }
    for (int shift = 0; shift < bits; shift += 8) {
        int64_t start[256] = {0}, total = 0;
        for (i = 0; i < n; i++)
            start[keys[i] >> shift & 255]++;
        if (start[keys[0] >> shift & 255] == n)
            continue;
        for (j = 0; j < 256; j++) {
            const int64_t size = start[j];
            start[j] = total;
            total += size;
        }
        for (i = 0; i < n; i++)
            swap[start[keys[i] >> shift & 255]++] = keys[i];
        uint64_t *sorted = swap;
        swap = keys;
        keys = sorted;
    }
    return keys;
}

/* Algorithm 2 counts, many (A, B) column pairs over one context: per pair
 * the sum over classes of len - LNDS, each class ordered by [A ASC, B ASC].
 * Per class the ranks are gathered through the rows and packed as
 * (A - min A) << k | (B - min B); classes with one A or one B value are
 * clean and never sorted.  Dirty classes run the bisect_right patience pass
 * from their clean prefix; once count + consumed - tails_len (a lower
 * bound) exceeds limit, the pair's count is limit + 1 (over budget) and its
 * remaining classes are neither gathered nor sorted.
 * columns: rank columns indexed by row; pairs: 2 column indexes (A, B) per
 * pair.  keys: room for twice the longest class; tails: for the longest.
 * out[p]: the count of pair p.  Returns 0, or -1 on a negative rank. */
int64_t repro_oc_lnds_count_batch(const int64_t *rows, const int64_t *offsets,
                                  int64_t num_classes,
                                  const int32_t *const *columns,
                                  const int64_t *pairs, int64_t num_pairs,
                                  int64_t limit, uint64_t *keys, int64_t *tails,
                                  int64_t *out)
{
    for (int64_t p = 0; p < num_pairs; p++) {
        const int32_t *a = columns[pairs[2 * p]], *b = columns[pairs[2 * p + 1]];
        int64_t count = 0;
        for (int64_t c = 0; c < num_classes; c++) {
            const int64_t start = offsets[c], n = offsets[c + 1] - start;
            int32_t a_lo = INT32_MAX, a_hi = 0, b_lo = INT32_MAX, b_hi = 0;
            int64_t i, len;
            for (i = 0; i < n; i++) {
                const int32_t x = a[rows[start + i]], y = b[rows[start + i]];
                if ((x | y) < 0)
                    return -1;
                if (x < a_lo) a_lo = x;
                if (x > a_hi) a_hi = x;
                if (y < b_lo) b_lo = y;
                if (y > b_hi) b_hi = y;
                keys[i] = (uint64_t)x << 32 | (uint32_t)y;
            }
            if (a_lo >= a_hi || b_lo >= b_hi)
                continue;
            const int k = bit_width((uint32_t)(b_hi - b_lo));
            const uint64_t mask = ((uint64_t)1 << k) - 1;
            for (i = 0; i < n; i++)
                keys[i] = ((keys[i] >> 32) - (uint64_t)a_lo) << k
                          | ((uint32_t)keys[i] - (uint32_t)b_lo);
            const uint64_t *s = sort_keys(
                keys, keys + n, n, k + bit_width((uint32_t)(a_hi - a_lo)));
            for (i = 1; i < n && (s[i - 1] & mask) <= (s[i] & mask); i++)
                ;
            if (i >= n)
                continue;
            for (len = 0; len < i; len++)
                tails[len] = (int64_t)(s[len] & mask);
            for (; i < n; i++) {
                const int64_t value = (int64_t)(s[i] & mask);
                int64_t lo = 0, hi = len;
                while (lo < hi) {
                    const int64_t mid = (lo + hi) >> 1;
                    if (tails[mid] <= value) lo = mid + 1; else hi = mid;
                }
                tails[lo] = value;
                if (lo == len) {
                    len++;
                } else if (limit >= 0 && count + (i + 1) - len > limit) {
                    count = limit + 1;
                    goto next;
                }
            }
            count += n - len;
        }
    next:
        out[p] = count;
    }
    return 0;
}
