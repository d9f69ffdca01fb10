"""Exact Walsh-Hadamard transforms over Z[zeta_p] and the uniformity statistics.

Walsh values live in the cyclotomic integers Z[zeta_p]; keeping them exact
makes "equality iff PcN/APcN/delta-uniform" a statement about integers
rather than floating-point tolerances.

The headline identities, all proved by expanding difference counts into
character sums (m = n throughout; q = p^n), with the count
n_F(a, b, c) = #{x : F(x+a) - cF(x) = b}:

* pcn_power_sum:     sum_{u,v} |W(u,v)|^2 |W(u,cv)|^2  >=  p^(4n),
                     equality iff every admissible c-derivative (a = 0
                     included) is a bijection.
* apcn_statistic:    the 6-fold convolution sum against
                     3 p^(2n) (pcn sum) - 2 p^(6n), equality iff the
                     uniformity is at most 2.
* convolution_statistic: for any delta, sum_{a,b} n_F phi(n_F) with
                     phi(x) = (x-1)...(x-delta) is nonnegative and zero iff
                     the uniformity is at most delta; its Walsh-side twin
                     evaluates the same number through convolution tensors
                     of W.
* derivative_walsh_statistic: the same phi-trick applied to the u = 0 row
                     of the Walsh transform of one fixed c-derivative.

Convolution tensors are evaluated through an exact character-sum
reorganization (a group Fourier transform over (F_q, +)^2 whose twiddle
factors are powers of zeta_p, i.e. coefficient rotations), which brings the
literal q^(2 delta) summation down to the cost of the transform: the DFT
over (Z_p)^n, O(q n p^2) coefficient operations per transformed vector.
The trace form enters once, where the Walsh array is written; later
transforms are plain DFTs whose labels only histograms read.  When F has a
multiplicative stabilizer, F(λx) = μ_λ F(x) (power maps have one of order
q - 1), W(λu, μ_λ v) = W(u, v): only column 0 and one column v per coset
of the multipliers μ_λ are transformed, and the others are gathered.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .cdiff import BLOCK_ELEMENTS, _count_blocks, _stabilizer, derivative_rows
from .errors import NotRationalInteger, SizeGuardExceeded
from .field import FieldSpec
from .functions import FunctionTable

WALSH_ENTRY_GUARD = 2 ** 23   # bound on the q^2 p entries of one Walsh array

_logger = logging.getLogger("cdiffkit")


class CyclotomicInt:
    """An element of Z[zeta_p], zeta_p = exp(2 pi i / p).

    Stored as an integer coefficient vector of length p over the spanning
    set 1, zeta, ..., zeta^(p-1), canonicalized so the last coefficient is
    zero (subtracting multiples of 1 + zeta + ... + zeta^(p-1) = 0), which
    makes the representation unique over the basis 1 .. zeta^(p-2).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(coeffs)}")
        last = coeffs[-1]
        if last:
            coeffs = [c - last for c in coeffs]
        self.p = p
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def integer(cls, p: int, value: int) -> "CyclotomicInt":
        return cls(p, [value] + [0] * (p - 1))

    @classmethod
    def zeta_power(cls, p: int, k: int) -> "CyclotomicInt":
        coeffs = [0] * p
        coeffs[k % p] = 1
        return cls(p, coeffs)

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "CyclotomicInt":
        """sum over residues e of counts[e] * zeta^e."""
        return cls(p, list(counts))

    def _require_same(self, other):
        if not isinstance(other, CyclotomicInt):
            if isinstance(other, int):
                return CyclotomicInt.integer(self.p, other)
            raise TypeError(f"cannot combine CyclotomicInt with {type(other)}")
        if other.p != self.p:
            raise ValueError("mixed cyclotomic orders")
        return other

    def __add__(self, other):
        other = self._require_same(other)
        return CyclotomicInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._require_same(other)
        return CyclotomicInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        other = self._require_same(other)
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % p] += a * b
        return CyclotomicInt(p, out)

    __rmul__ = __mul__

    def conj(self) -> "CyclotomicInt":
        """Complex conjugation zeta^j -> zeta^(-j)."""
        p = self.p
        out = [0] * p
        for j, a in enumerate(self.coeffs):
            out[(-j) % p] += a
        return CyclotomicInt(p, out)

    def norm_sq(self) -> "CyclotomicInt":
        """z * conj(z); real and nonnegative as a complex number."""
        return self * self.conj()

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_rational_integer():
            raise NotRationalInteger(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        return (isinstance(other, CyclotomicInt)
                and self.p == other.p and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, coeffs={list(self.coeffs)})"


# ---------------------------------------------------------------------------
# Walsh transform
# ---------------------------------------------------------------------------

def walsh_value(F: FunctionTable, u: int, v: int) -> CyclotomicInt:
    """W_F(u, v) = sum_x zeta^(Tr(v F(x)) - Tr(u x))."""
    spec = F.spec
    tr = spec.trace_all()
    e = (tr[spec.scale_array(v, F.values)].astype(np.int64)
         - tr[spec.scale_array(u, np.arange(spec.q))]) % spec.p
    return CyclotomicInt.from_exponent_counts(spec.p, np.bincount(e, minlength=spec.p))


@dataclass(frozen=True)
class WalshTable:
    """All q^2 Walsh values of F; entry (u, v) is W_F(u, v)."""

    spec: FieldSpec
    entries: tuple  # tuple of tuples of CyclotomicInt

    def __getitem__(self, uv):
        u, v = uv
        return self.entries[u][v]

    def to_json_dict(self) -> dict:
        return {
            "field": self.spec.to_json_dict(),
            "entries": [[list(z.coeffs) for z in row] for row in self.entries],
        }


@dataclass(frozen=True)
class _Columns:
    """Which columns v of a Walsh array are transformed, and how the others
    follow from them.

    With Λ the stabilizer of F and μ_λ its multipliers (see
    cdiff._stabilizer), putting x = λy in W_F gives W_F(λu, μ_λ v) =
    W_F(u, v), and so G(λu, μ_λ v) = G(u, v) for G(u, v) = W(u, v)
    conj(W(u, cv)).  Such an array is fixed by its column 0 and one column
    per coset rM of M = {μ_λ}: for v = r μ_λ, column v is column r with row
    u read at λ^-1 u.
    """

    spec: FieldSpec
    cols: np.ndarray    # 0, then the smallest rank of each coset of M, ascending
    index: np.ndarray   # index[v]: the position in cols of v's representative r
    shift: np.ndarray   # shift[v]: the log of λ^-1, for v = r μ_λ
    weight: int         # |M|, the columns v per coset

    def take(self, arr, vs=None):
        """Columns vs (every column when None) of the (q, q, ...) array whose
        columns cols are arr, one block of rows at a time.  When M is
        trivial every v is its own representative, cols is 0..q-1, and the
        whole array is arr itself."""
        spec = self.spec
        q = spec.q
        if vs is None:
            if len(self.cols) == q:
                return arr
            vs = np.arange(q)
        col, shift = self.index[vs], self.shift[vs]
        flat = arr.reshape(-1, *arr.shape[2:])   # [u, j] at u len(cols) + j
        out = np.empty((q, len(vs)) + arr.shape[2:], dtype=arr.dtype)
        rows = max(1, BLOCK_ELEMENTS // len(vs))
        for u in range(0, q, rows):
            us = spec._exp[spec._log[u:u + rows, None] + shift]   # λ^-1 u
            if u == 0:
                us[0] = 0   # _log[0] is a placeholder; λ^-1 0 = 0
            np.take(flat, us * len(self.cols) + col, axis=0, out=out[u:u + rows],
                    mode="clip")   # in range: "raise" would buffer out
        return out


def _column_map(spec: FieldSpec, values) -> _Columns:
    """The columns of F's Walsh arrays (see _Columns): for A x^d, 0 and
    gcd(d, q - 1) representatives; when M is trivial, all q.  Logs one
    DEBUG record on the "cdiffkit" logger with |Λ| and the columns
    transformed."""
    q = spec.q
    m, mu = _stabilizer(spec, values)
    e = int(spec._log[mu])                 # μ = g^e generates M
    weight = (q - 1) // math.gcd(e, q - 1)
    cosets = (q - 1) // weight             # M = <g^cosets>: g^j lies in coset j mod cosets
    reps = np.sort(spec._exp[:q - 1].reshape(weight, cosets).min(axis=0))
    # λ = g^(m k) has μ_λ = μ^k, so v = r μ^k covers each nonzero v once
    k = np.arange(weight)[:, None]
    v = spec._exp[(spec._log[reps] + e * k) % (q - 1)]
    index = np.zeros(q, dtype=np.intp)
    shift = np.zeros(q, dtype=np.intp)
    index[v] = np.arange(1, cosets + 1)
    shift[v] = (-m * k) % (q - 1)
    _logger.debug("walsh array over GF(%d^%d): |stabilizer| %d, columns "
                  "transformed %d of %d", spec.p, spec.n, (q - 1) // m,
                  cosets + 1, q)
    return _Columns(spec, np.concatenate([[0], reps]), index, shift, weight)


def _walsh_columns(F: FunctionTable, size_guard: int | None = WALSH_ENTRY_GUARD):
    """(columns, W): the transformed columns of F's Walsh array (see
    _Columns), W an int64 array of shape (q, len(columns.cols), p) whose
    entry [u, j] is the exponent-count vector of W_F(u, columns.cols[j]).
    Every Walsh array starts here; q^2 p > size_guard raises before
    anything is made, however few the columns."""
    spec = F.spec
    q, p = spec.q, spec.p
    if size_guard is not None and q * q * p > size_guard:
        raise SizeGuardExceeded(
            f"a Walsh array over GF({p}^{spec.n}) holds q^2 p = "
            f"{q * q * p} entries, above the guard of {size_guard}")
    columns = _column_map(spec, F.values)
    # the one place the trace form enters: the one-hot of zeta^Tr(v F(x))
    # goes to row y = t(-x), where digit i of t(z) is Tr(z alpha^i) (alpha^i
    # has rank p^i); <u, y> = Tr(-u x), so the transform puts W_F(u, v) at
    # row u
    tr = spec.trace_all()
    neg = spec.neg_array(np.arange(q))
    y = sum(tr[spec.scale_array(p ** i, neg)] * p ** i for i in range(spec.n))
    W = np.zeros((q, len(columns.cols), p), dtype=np.int64)
    for j, v in enumerate(columns.cols.tolist()):
        W[y, j, tr[spec.scale_array(v, F.values)]] = 1
    return columns, _dft(W, p)


def _walsh_array(F: FunctionTable,
                 size_guard: int | None = WALSH_ENTRY_GUARD) -> np.ndarray:
    """All Walsh values as an int64 array of shape (q, q, p); entry [u, v]
    is the exponent-count vector of W_F(u, v), gathered from the
    transformed columns (see _walsh_columns)."""
    columns, W = _walsh_columns(F, size_guard)
    return columns.take(W)


def walsh_table(F: FunctionTable) -> WalshTable:
    """All Walsh values of F; equal entries share one CyclotomicInt."""
    columns, W = _walsh_columns(F)
    p = F.spec.p
    shared = {}

    def entry(coeffs):
        coeffs = tuple(coeffs)
        z = shared.get(coeffs)
        if z is None:
            z = shared[coeffs] = CyclotomicInt(p, coeffs)
        return z

    # canonical coefficients (last one zero) are equal iff the values are;
    # one row of u at a time, so the coefficients never exist as Python
    # lists all at once.  Every entry of the table is a reference gathered
    # from the transformed columns
    objects = np.fromiter(itertools.chain.from_iterable(
        map(entry, (row - row[:, -1:]).tolist()) for row in W),
        dtype=object, count=W.shape[0] * W.shape[1]).reshape(W.shape[:2])
    del W
    return WalshTable(F.spec, tuple(map(tuple, columns.take(objects).tolist())))


# ---------------------------------------------------------------------------
# exact character-sum reorganization of the convolution tensors
# ---------------------------------------------------------------------------

def _conj_axis(arr: np.ndarray, p: int) -> np.ndarray:
    """Complex conjugation along the coefficient axis: zeta^j -> zeta^(-j)."""
    idx = (-np.arange(p)) % p
    return arr[..., idx]


def _cyclic_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Elementwise product in Z[zeta_p]: cyclic convolution along the last axis."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k in range(p):
        for i in range(p):
            out[..., k] += a[..., i] * b[..., (k - i) % p]
    return out


def _conj_norm_sum(arr: np.ndarray, p: int) -> CyclotomicInt:
    """sum over the entries z of a (..., p) array of conj(z) * z, exactly, a
    block of at most max(one row of arr, BLOCK_ELEMENTS) coefficients at a
    time."""
    # Shifting each entry by its smallest coefficient keeps the element
    # (1 + zeta + ... + zeta^(p-1) = 0) and leaves coefficients >= 0.  With L
    # the largest L1 norm of a shifted entry of a block, every coefficient of
    # every product conj(z) z and of every partial sum is at most
    # L^2 * entries, so int64 is exact below 2^63; otherwise the block runs on
    # Python integers (object dtype).
    rows = max(1, BLOCK_ELEMENTS // arr[0].size)
    total = [0] * p
    for u in range(0, len(arr), rows):
        z = arr[u:u + rows].reshape(-1, p)
        z = z - z.min(axis=1, keepdims=True)
        L = int(z.sum(axis=1).max())
        if L ** 2 * len(z) >= 2 ** 63:
            z = z.astype(object)
        term = _cyclic_mul(_conj_axis(z, p), z, p)
        total = [t + int(s) for t, s in zip(total, term.sum(axis=0))]
    return CyclotomicInt(p, total)


def _count_frequencies(arr: np.ndarray, scale: int) -> np.ndarray:
    """Histogram of the counts z / scale over the entries z of a (..., p)
    array, each of which must be a non-negative multiple of scale in Z."""
    # z is a rational integer iff coefficients 1..p-1 agree; its value is
    # then coefficient 0 minus coefficient p-1
    value = arr[..., 0] - arr[..., -1]
    if ((arr[..., 1:] != arr[..., -1:]).any() or (value < 0).any()
            or (value % scale).any()):
        raise NotRationalInteger(
            f"an entry is not a non-negative rational multiple of {scale}")
    return np.bincount(value.ravel() // scale)


def _power_sums(freq, top: int) -> list:
    """[sum_m freq[m] * m^(j+1) for j = 1..top], in Python integers."""
    hits = [(m, int(f)) for m, f in enumerate(freq) if f]
    return [sum(f * m ** (j + 1) for m, f in hits) for j in range(1, top + 1)]


def _g_columns(columns: _Columns, W: np.ndarray, c: int) -> np.ndarray:
    """G(u, r) = W(u, r) * conj(W(u, c r)) over the columns r of
    columns.cols, written over their Walsh values W a block of rows at a
    time; G has the symmetry of W (see _Columns)."""
    p = columns.spec.p
    Wc = columns.take(W, columns.spec.scale_array(c, columns.cols))
    rows = max(1, BLOCK_ELEMENTS // W[0].size)
    for u in range(0, len(W), rows):
        block = W[u:u + rows]
        block[...] = _cyclic_mul(block, _conj_axis(Wc[u:u + rows], p), p)
    return W


def _g_array(F: FunctionTable, c: int,
             size_guard: int | None = WALSH_ENTRY_GUARD) -> np.ndarray:
    """G(u, v) = W(u, v) * conj(W(u, c v)) over all (u, v), shape (q, q, p),
    formed over the transformed columns and then gathered."""
    columns, W = _walsh_columns(F, size_guard)
    return columns.take(_g_columns(columns, W, c))


def _dft(arr: np.ndarray, p: int) -> np.ndarray:
    """The DFT over (Z_p)^m along the leading axis, len(arr) = p^m:
    out[k, ...] = sum_w zeta^<k, w> arr[w, ...], exact in int64, with k and
    w read as vectors of base-p digits.

    One p-point stage per digit; the twiddle factors are rotations of the
    coefficient axis, and each stage grows the largest coefficient by at most
    a factor of p, so p^m bounds the whole transform.

    arr is overwritten: the stages alternate between arr and one buffer of
    its size, so at most two such arrays are live.
    """
    peak = int(np.abs(arr).max()) if arr.size else 0
    if peak and peak > (2 ** 62) // (len(arr) * p):
        raise SizeGuardExceeded("transform would overflow int64 accumulators")
    bufs = (arr, np.empty_like(arr))
    stride = 1      # p^i, the place value of the digit of this stage
    while stride < len(arr):
        # splitting the leading axis is always a view, so out writes the
        # buffer; the coefficient axis moves to second place so that each
        # add below runs along a long axis, not along p - s coefficients
        y, out = (np.moveaxis(b.reshape(-1, p, stride, *arr.shape[1:]), -1, 1)
                  for b in bufs)
        for k in range(p):
            out[:, :, k] = y[:, :, 0]
            for d in range(1, p):
                # zeta^s y[d], s = k d mod p, rotates the coefficients by s:
                # two slices added in place
                s = k * d % p
                for o, i in ((out[:, s:, k], y[:, :p - s, d]),
                             (out[:, :s, k], y[:, p - s:, d])):
                    np.add(o, i, out=o, order="C")
        bufs = bufs[::-1]
        stride *= p
    return bufs[0]


def _walsh_power_sums(F: FunctionTable, c: int, top: int,
                      size_guard: int | None = WALSH_ENTRY_GUARD) -> list:
    """[sum_{a,b} n_F(a,b,c)^(j+1) for j = 1..top], from one transform of G.

    The (j+1)-fold convolution tensor (W_F W_F^c)^{tensor (j+1)} (0, 0), the
    sum over u_1..u_j, v_1..v_j of conj(W)(sum u, sum v) W(sum u, c sum v)
    prod_i W(u_i,v_i) conj(W)(u_i,c v_i), is p^(2jn) times the j-th sum and
    (1/q^2) * sum over characters chi of conj(hat G)(chi) * hat G(chi)^j with
    G(u, v) = W(u, v) conj(W)(u, c v).  Expanding G gives
    hat G(s, t) = q^2 n_F(s, -t, c), a rational integer, so every j comes
    from one histogram of the checked counts hat G / q^2.
    """
    q, p = F.spec.q, F.spec.p
    # the digits of u q + v are those of (u, v): one transform of the (q^2, p)
    # view puts hat G(s, t) at (t(s), t(t)), labels the histogram never
    # reads.  The transform reuses its input, so at most two (q, q, p)
    # arrays are live
    G = _g_array(F, c, size_guard)
    return _power_sums(_count_frequencies(_dft(G.reshape(q * q, p), p), q * q), top)


def phi_coefficients(delta: int) -> list:
    """Coefficients A_0..A_delta of phi(x) = (x-1)(x-2)...(x-delta)."""
    coeffs = [1]
    for r in range(1, delta + 1):
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i + 1] += a
            nxt[i] -= r * a
        coeffs = nxt
    return coeffs


def _phi(delta: int, base: int, sums) -> int:
    """base * A_0 + sum_j A_j sums[j - 1], A = phi_coefficients(delta)."""
    A = phi_coefficients(delta)
    return base * A[0] + sum(a * s for a, s in zip(A[1:], sums))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _reject_c1(c):
    if c == 1:
        raise ValueError(
            "c = 1 is rejected: with a = 0 admissible the count n_F(0, b, 1) "
            "equals q for every b, so the characterization is vacuous there")


def pcn_power_sum(F: FunctionTable, c: int) -> int:
    """S = sum_{u,v} |W(u,v)|^2 |W(u,cv)|^2, an exact integer.

    S >= p^(4n) always, with equality iff F is PcN for this c (uniformity 1
    with a = 0 admissible).  Only the transformed columns of G are formed
    (see _Columns).
    """
    _reject_c1(c)
    spec = F.spec
    spec._check(c)
    # |W(u,v)|^2 |W(u,cv)|^2 = |G(u,v)|^2 with G(u,v) = W(u,v) conj(W(u,cv)).
    # G(λu, μ_λ v) = G(u, v) and u -> λu permutes the rows, so every column
    # of a coset of M has the sum of its representative (see _Columns)
    columns, W = _walsh_columns(F)
    G = _g_columns(columns, W, c)
    return (_conj_norm_sum(G[:, :1], spec.p)
            + columns.weight * _conj_norm_sum(G[:, 1:], spec.p)).as_integer()


def apcn_statistic(F: FunctionTable, c: int,
                   size_guard: int | None = WALSH_ENTRY_GUARD):
    """(lhs, rhs) of the 2-uniformity characterization; lhs >= rhs always,
    equality iff the c-differential uniformity is at most 2 (a = 0 admissible).

    lhs is the 6-fold Walsh convolution sum
      sum conj(W)(u1+u2, v1+v2) W(u1+u2, c(v1+v2))
          * prod_i W(u_i, v_i) conj(W)(u_i, c v_i)
    and rhs = 3 p^(2n) * pcn_power_sum - 2 p^(6n).  size_guard bounds the
    q^2 p entries of the Walsh arrays (see _walsh_array); None lifts it.
    """
    _reject_c1(c)
    q = F.spec.q
    s1, s2 = _walsh_power_sums(F, c, 2, size_guard)
    return q ** 4 * s2, 3 * q ** 4 * s1 - 2 * q ** 6


def counts_power_sums(F: FunctionTable, c: int, top: int) -> list:
    """[sum_{a,b} n_F(a,b,c)^(j+1) for j = 1..top], from one pass."""
    q = F.spec.q
    freq = np.zeros(q + 1, dtype=np.int64)
    for _, mult in _count_blocks(F.spec, F.values, c, np.arange(q)):
        # mult[i, b] = n_F(a_i, b, c); freq[m] counts the (a, b) with n_F = m
        freq += np.bincount(mult.ravel(), minlength=q + 1)
    return _power_sums(freq, top)


def convolution_statistic(F: FunctionTable, c: int, delta: int):
    """(count_side, walsh_side) for phi(x) = (x-1)...(x-delta).

    count_side = p^(2n) A_0 + sum_j A_j sum_{a,b} n_F(a,b,c)^(j+1), which is
    sum_{a,b} n_F phi(n_F) since sum_{a,b} n_F = p^(2n); nonnegative, zero
    iff the c-differential uniformity is at most delta (a = 0 admissible).
    walsh_side evaluates the identical quantity through the Walsh
    convolution tensors (see _walsh_power_sums) and is None when the Walsh
    arrays would exceed WALSH_ENTRY_GUARD; whenever both sides are computed
    they are equal integers.
    """
    _reject_c1(c)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    spec = F.spec
    base = spec.q ** 2
    count_side = _phi(delta, base, counts_power_sums(F, c, delta))
    if base * spec.p > WALSH_ENTRY_GUARD:   # the entries of one Walsh array
        return count_side, None
    return count_side, _phi(delta, base, _walsh_power_sums(F, c, delta))


def derivative_walsh_statistic(F: FunctionTable, c: int, a: int, delta: int) -> int:
    """phi-statistic of one fixed c-derivative D = x -> F(x+a) - cF(x),
    evaluated from the u = 0 row of D's Walsh transform:

      p^n A_0 + sum_j p^(-jn) A_j
          sum_{v_1..v_j} conj(W_D)(0, sum v_i) prod_i W_D(0, v_i)

    Nonnegative; zero iff no value of D is taken more than delta times.
    Only (q, p) arrays are formed.
    """
    _reject_c1(c)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    spec = F.spec
    spec._check(a)
    q, p = spec.q, spec.p
    dvals = derivative_rows(spec, F.values, c, [a])[0]
    # the transform of D's value histogram is g[k] = sum_y #{x : D(x) = y}
    # zeta^<k, y>, and transforming again gives q #{x : D(x) = y} at the
    # digits of -y
    hist = np.zeros((q, p), dtype=np.int64)
    hist[:, 0] = np.bincount(dvals, minlength=q)
    ghat = _dft(_dft(hist, p), p)
    return _phi(delta, q, _power_sums(_count_frequencies(ghat, q), delta))
