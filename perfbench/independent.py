"""Arithmetic and difference counts computed apart from cdiffkit.

Nothing here reads a cdiffkit table.  Multiplication comes from an
exp/log table that `tests/oracles.py`'s SlowField (schoolbook multiply and
reduce) builds; addition is digit-wise mod p, which for p = 2 is the XOR of
the ranks.  Difference counts are then vectorized with numpy, so the checks
stay cheap enough to run after every benchmark run.
"""

from __future__ import annotations

import numpy as np

from oracles import SlowField

OWN_ADD_TABLE_BOUND = 2187   # build our own q x q addition table up to this q
ROW_CHUNK = 64               # rows of a per vectorized block in full scans


def _prime_factors(m):
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


class IndependentField:
    """GF(p^n) over a given modulus, ranks encoded as base-p digits."""

    def __init__(self, p: int, n: int, modulus):
        self.p, self.n, self.q = p, n, p ** n
        self.slow = SlowField(p, n, list(modulus))
        q = self.q
        ranks = np.arange(q, dtype=np.int64)
        self.digits = np.stack([(ranks // p ** i) % p for i in range(n)], axis=1)
        self.pow_p = np.array([p ** i for i in range(n)], dtype=np.int64)
        self.neg = self._undigitize((-self.digits) % p)
        gen = self._generator()
        exp = np.ones(max(1, q - 1), dtype=np.int64)
        cur = 1
        for i in range(q - 1):
            exp[i] = cur
            cur = self.slow.mul(cur, gen)
        if cur != 1 or (q > 2 and len(np.unique(exp)) != q - 1):
            raise RuntimeError(f"rank {gen} does not generate GF({p}^{n})*")
        self.exp = np.concatenate([exp, exp])
        self.log = np.zeros(q, dtype=np.int64)
        self.log[exp] = np.arange(q - 1)
        self._add_table = None

    def _generator(self):
        q = self.q
        if q == 2:
            return 1
        factors = _prime_factors(q - 1)
        for g in range(2, q):
            if all(self.slow.pow(g, (q - 1) // r) != 1 for r in factors):
                return g
        raise RuntimeError("no generator")

    def _undigitize(self, digs):
        return digs @ self.pow_p

    # -- vectorized arithmetic on rank arrays ---------------------------------

    def add(self, xs, ys):
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        if self.p == 2:
            return xs ^ ys
        if self._add_table is not None:
            return self._add_table.ravel()[xs * self.q + ys]
        return self._undigitize((self.digits[xs] + self.digits[ys]) % self.p)

    def shifted_ranks(self, a_block):
        """Rows x + a over all x, one row per a in a_block."""
        if self._add_table is not None:
            return self._add_table[a_block]
        return self.add(a_block[:, None], np.arange(self.q, dtype=np.int64)[None, :])

    def sub(self, xs, ys):
        return self.add(xs, self.neg[np.asarray(ys, dtype=np.int64)])

    def mul(self, xs, ys):
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64),
                                     np.asarray(ys, dtype=np.int64))
        out = np.zeros(xs.shape, dtype=np.int64)
        nz = (xs != 0) & (ys != 0)
        out[nz] = self.exp[self.log[xs[nz]] + self.log[ys[nz]]]
        return out

    def inv(self, xs):
        xs = np.asarray(xs, dtype=np.int64)
        out = np.zeros(xs.shape, dtype=np.int64)
        nz = xs != 0
        out[nz] = self.exp[(-self.log[xs[nz]]) % (self.q - 1)]
        return out

    def power(self, xs, e: int):
        """xs^e elementwise, with 0^e = 0 (e >= 1)."""
        xs = np.asarray(xs, dtype=np.int64)
        out = np.zeros(xs.shape, dtype=np.int64)
        nz = xs != 0
        out[nz] = self.exp[(self.log[xs[nz]] * e) % (self.q - 1)]
        return out

    def power_map(self, d: int):
        """x^d over all ranks."""
        return self.power(np.arange(self.q), d)

    def frobenius(self, xs):
        return self.power(xs, self.p)

    def trace_all(self):
        """Absolute trace of every rank: x + x^p + ... + x^(p^(n-1))."""
        ranks = np.arange(self.q, dtype=np.int64)
        acc = np.zeros(self.q, dtype=np.int64)
        cur = ranks
        for _ in range(self.n):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur)
        if acc.max() >= self.p:
            raise RuntimeError("trace left the prime field")
        return acc

    def is_square(self, x: int) -> bool:
        return self.p == 2 or x == 0 or int(self.log[x]) % 2 == 0

    def use_add_table(self):
        """Own q x q addition table, from the digits alone (q <= bound)."""
        if self.p != 2 and self._add_table is None and self.q <= OWN_ADD_TABLE_BOUND:
            d = self.digits
            table = np.zeros((self.q, self.q), dtype=np.int32)
            for i in range(self.n):
                table += (((d[:, None, i] + d[None, :, i]) % self.p)
                          * self.p ** i).astype(np.int32)
            self._add_table = table
        return self

    # -- difference counts ------------------------------------------------------

    def derivative_row(self, values, c: int, a: int):
        """x -> F(x + a) - c F(x) over all x."""
        xs = np.arange(self.q, dtype=np.int64)
        return self.sub(values[self.add(xs, a)], self.mul(c, values))

    def row_counts(self, values, c: int, a_list):
        """Blocks of rows counts[i, b] = #{x : F(x + a) - c F(x) = b}, for a
        running through a_list in order."""
        q = self.q
        values = np.asarray(values, dtype=np.int64)
        ncf = self.neg[self.mul(c, values)]
        for start in range(0, len(a_list), ROW_CHUNK):
            block = np.asarray(a_list[start:start + ROW_CHUNK], dtype=np.int64)
            d = self.add(values[self.shifted_ranks(block)], ncf[None, :])
            offs = (np.arange(len(block), dtype=np.int64) * q)[:, None]
            yield np.bincount((d + offs).ravel(),
                              minlength=len(block) * q).reshape(len(block), q)

    def row_maxima(self, values, c: int, a_list):
        """Maximum count over b of each row a in a_list."""
        return np.concatenate([counts.max(axis=1)
                               for counts in self.row_counts(values, c, a_list)])

    def row_witness(self, values, c: int, a: int):
        """(max count of row a, smallest b attaining it, solutions)."""
        d = self.derivative_row(values, c, a)
        counts = np.bincount(d, minlength=self.q)
        b = int(np.argmax(counts))
        return int(counts[b]), b, tuple(int(x) for x in np.nonzero(d == b)[0])


class Scan:
    """Per-c maxima in the program's conventions, from our own counts.

    best(include_zero) gives (value, (a, b), solutions) with the
    lexicographically smallest witness, as cdiffkit promises.
    """

    def __init__(self, field: IndependentField, values, c: int, row_max):
        self.field, self.values, self.c = field, values, c
        self.row_max = row_max   # row maximum for every a in [0, q)
        self._best = {}

    def best(self, include_zero: bool):
        if include_zero not in self._best:
            self._best[include_zero] = self._find_best(include_zero)
        return self._best[include_zero]

    def _find_best(self, include_zero):
        rows = self.row_max if include_zero and self.c != 1 else self.row_max[1:]
        first = 0 if include_zero and self.c != 1 else 1
        a = first + int(np.argmax(rows))
        value, b, sols = self.field.row_witness(self.values, self.c, a)
        if value != int(rows.max()):
            raise RuntimeError("row recount disagrees with its own maximum")
        return value, (a, b), sols


def full_scan(field: IndependentField, values, c: int) -> Scan:
    """Every row a in [0, q) recounted."""
    return Scan(field, values, c, field.row_maxima(values, c, np.arange(field.q)))


def power_map_scan(field: IndependentField, values, c: int) -> Scan:
    """Rows a = 0 and a = 1 only.

    For F(x) = x^d and a != 0, substituting x = a y gives
    F(x + a) - c F(x) = a^d (F(y + 1) - c F(y)), so every row a != 0 is row
    a = 1 with b scaled by a^d: its maximum is the same, and the smallest
    shift attaining the maximum over a != 0 is a = 1.
    """
    m0, m1 = field.row_maxima(values, c, [0, 1])
    q = field.q
    row_max = np.full(q, m1, dtype=np.int64)
    row_max[0] = m0
    return Scan(field, values, c, row_max)


def difference_power_sum(field: IndependentField, values, c: int, j: int) -> int:
    """sum over a in [0, q) and b of N_a(b)^(j+1), N_a(b) = #{x : F(x+a) - cF(x) = b}.

    The Walsh statistics are multiples of these sums:
    pcn_power_sum = q^2 S_1, the apcn left side = q^4 S_2, and the
    delta-convolution tensor of order j is q^(2j) S_j.
    """
    total = 0
    for counts in field.row_counts(values, c, np.arange(field.q)):
        total += sum(int(k) ** (j + 1) for k in counts[counts > 0].tolist())
    return total


def walsh_coefficients(field: IndependentField, values):
    """All Walsh values as exponent counts, shape (q, q, p), canonicalized
    so the last coefficient is 0: W(u, v) = sum_x zeta^(Tr(v F(x)) - Tr(u x))."""
    q, p = field.q, field.p
    tr = field.trace_all()
    values = np.asarray(values, dtype=np.int64)
    ranks = np.arange(q, dtype=np.int64)
    tr_vf = tr[field.mul(ranks[:, None], values[None, :])]    # [v, x]
    tr_ux = tr[field.mul(ranks[:, None], ranks[None, :])]     # [u, x]
    out = np.empty((q, q, p), dtype=np.int64)
    offs = (np.arange(q, dtype=np.int64) * p)[:, None]
    for u in range(q):
        e = (tr_vf - tr_ux[u][None, :]) % p
        out[u] = np.bincount((e + offs).ravel(), minlength=q * p).reshape(q, p)
    return out - out[..., -1:]
