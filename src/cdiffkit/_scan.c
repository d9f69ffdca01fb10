/* The compiled histogram kernel behind cdiff._count_blocks.
 *
 * For each row i, with shift a = rows[i] and that row's c, forms
 * d(x) = F(x + a) - c*F(x) over every rank x and writes the row's histogram
 * into row i of counts, a caller-owned (n_rows, q) int32 block:
 * counts[i*q + b] = #{x : d(x) = b}.  The caller makes every reduction of
 * the counts, checks every rank beforehand and sizes every buffer, so the
 * loops index without checks.
 *
 * fv holds q words, one per rank y, for F(y).  fw is a stack of -cF tables
 * of q words each, one per c: row i reads table slot[i], and a NULL slot
 * means one c for every row, table 0.
 *
 * Addition follows FieldSpec:
 *   p = 2:       x + y = x ^ y; int32 words fv = F and fw = -cF.
 *   n = 1 (m 0): x + y = (x + y) mod p; int32 words fv = F and fw = -cF.
 *   otherwise:   rank r = h*m + l and x + y = HI[h_x, h_y] + LO[l_x, l_y],
 *                with HI (q/m x q/m, entries multiples of m, all below q)
 *                and LO (m x m) flattened.  Each word packs two flat table
 *                offsets, the HI one above bit S and the LO one below it:
 *                with F = h*m + l and -cF = h'*m + l',
 *                  fv = (h * (q/m)) << S | l*m    and    fw = h' << S | l',
 *                so s = fv[y] + fw[x] holds h*(q/m) + h' above bit S and
 *                l*m + l' below it, and
 *                  F(y) - cF(x) = HI[s >> S] + LO[s & (2^S - 1)].
 *                No carry crosses bit S, since l*m + l' < m^2 <= 2^S, and
 *                s fits its word, since h*(q/m) + h' < (q/m)^2 <= q.
 *                The width follows from m alone (cdiff._split_tables):
 *                S = 16, uint32 words and uint16 tables when m^2 <= 2^16
 *                (then q <= m^2, so every HI entry fits 16 bits too), and
 *                S = 32, uint64 words and int32 tables otherwise.  One
 *                loop body, SPLIT_ROW, serves both widths.
 */

#include <stdint.h>
#include <string.h>

/* Row i's histogram on the split path: x = h*m + l runs over h and then l,
 * x + a = HI[h_a, h] + LO[l_a, l], and each side is one packed load. */
#define SPLIT_ROW(PACK, TABLE, S)                                             \
    do {                                                                      \
        const PACK *pv = fv, *wx = (const PACK *)fw + t * q;                  \
        const TABLE *ht = hi, *lt = lo;                                       \
        const PACK mask = ((PACK)1 << (S)) - 1;                               \
        const TABLE *hrow = ht + (a / m) * (q / m), *lrow = lt + (a % m) * m; \
        for (int64_t h = 0; h < q / m; h++, wx += m) {                        \
            const PACK *pvh = pv + hrow[h];                                   \
            for (int64_t l = 0; l < m; l++) {                                 \
                PACK s = pvh[lrow[l]] + wx[l];                                \
                hist[ht[s >> (S)] + lt[s & mask]]++;                          \
            }                                                                 \
        }                                                                     \
    } while (0)

void cdiff_row_counts(int64_t q, int64_t p, int64_t m, int64_t shift,
                      const void *hi, const void *lo, const void *fv,
                      const void *fw, const int32_t *slot,
                      const int64_t *rows, int64_t n_rows, int32_t *counts)
{
    const int32_t *v = fv;   /* int32 words when m = 0 */
    for (int64_t i = 0; i < n_rows; i++) {
        int64_t a = rows[i], t = slot ? slot[i] : 0;   /* row i's -cF table */
        const int32_t *wc = (const int32_t *)fw + t * q;
        int32_t *hist = counts + i * q;
        memset(hist, 0, (size_t)q * sizeof *hist);
        if (p == 2) {
            for (int64_t x = 0; x < q; x++)
                hist[v[x ^ a] ^ wc[x]]++;
        } else if (m == 0) {
            int64_t y = a;
            for (int64_t x = 0; x < q; x++) {
                int32_t s = v[y] + wc[x];
                hist[s >= p ? s - p : s]++;
                y = y + 1 == p ? 0 : y + 1;
            }
        } else if (shift == 16) {
            SPLIT_ROW(uint32_t, uint16_t, 16);
        } else {
            SPLIT_ROW(uint64_t, int32_t, 32);
        }
    }
}
