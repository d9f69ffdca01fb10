/* The compiled histogram kernel behind cdiff._count_blocks.
 *
 * For each row i, with shift a = rows[i] and that row's c, forms
 * d(x) = F(x + a) - c*F(x) over every rank x and writes the row's histogram
 * into row i of counts, a caller-owned (n_rows, q) int32 block:
 * counts[i*q + b] = #{x : d(x) = b}.  The caller makes every reduction of
 * the counts, checks every rank beforehand and sizes every buffer, so the
 * loops index without checks.
 *
 * v holds 2q int32 entries, v and vl (below; vl only when m > 0).  w is a
 * stack of -cF tables, one per c: table s starts at w + s*step, with
 * step = 2q when m > 0 (w, then wl) and q otherwise.  Row i reads table
 * slot[i]; a NULL slot means one c for every row, table 0.
 *
 * Addition follows FieldSpec:
 *   p = 2:       x + y = x ^ y; v = F and w = -cF.
 *   n = 1 (m 0): x + y = (x + y) mod p; v = F and w = -cF.
 *   otherwise:   rank r = h*m + l and x + y = HI[h_x, h_y] + LO[l_x, l_y],
 *                with HI (q/m x q/m, entries multiples of m) and LO (m x m)
 *                flattened.  F and -cF come pre-split and pre-scaled into
 *                flat table offsets: v = (F / m) * (q/m), vl = (F % m) * m,
 *                w = -cF / m and wl = -cF % m, so that
 *                F(y) - cF(x) = HI[v[y] + w[x]] + LO[vl[y] + wl[x]].
 */

#include <stdint.h>
#include <string.h>

void cdiff_row_counts(int64_t q, int64_t p, int64_t m, const int32_t *v,
                      const int32_t *w, const int32_t *slot,
                      const int32_t *hi, const int32_t *lo,
                      const int64_t *rows, int64_t n_rows, int32_t *counts)
{
    const int32_t *vl = v + q;
    const int64_t step = m ? 2 * q : q;
    for (int64_t i = 0; i < n_rows; i++) {
        int64_t a = rows[i];
        const int32_t *wc = slot ? w + slot[i] * step : w, *wlc = wc + q;
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
        } else {
            /* x = h*m + l, and x + a = HI[h_a, h] + LO[l_a, l] */
            int64_t mh = q / m;
            const int32_t *hrow = hi + (a / m) * mh, *lrow = lo + (a % m) * m;
            for (int64_t h = 0; h < mh; h++) {
                const int32_t *wx = wc + h * m, *wlx = wlc + h * m;
                int32_t yh = hrow[h];
                for (int64_t l = 0; l < m; l++) {
                    int32_t y = yh + lrow[l];
                    hist[hi[v[y] + wx[l]] + lo[vl[y] + wlx[l]]]++;
                }
            }
        }
    }
}
