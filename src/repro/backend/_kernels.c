/* Compiled partition and validation kernels, loaded by repro.backend.native
 * via ctypes.  All walk the CSR layout of one partition or context: class c
 * spans [offsets[c], offsets[c + 1]).  A negative limit means "no budget". */
#include <stdint.h>
#include <stdlib.h>

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
