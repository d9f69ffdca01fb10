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
transforms are plain DFTs.  Each side returns one histogram,
f[k] = #{(a, b) : n_F(a, b, c) = k}: the Walsh side reads it from
hat G(s, t) = q^2 n_F(s, -t, c) (_walsh_histogram), the count side from
one derivative sweep (_count_histogram).  Every statistic is one sum over
a histogram: pcn = q^2 sum f[k] k^2 (Parseval), apcn's lhs
q^4 sum f[k] k^3, and each phi statistic sum f[k] k phi(k).  walsh_check
answers all three for one (F, c) from one histogram per side.  When F has
a multiplicative stabilizer Λ, F(λx) = μ_λ F(x) (power maps have one of
order q - 1), W(λu, μ_λ v) = W(u, v): only column 0 and one column v per
coset of the multipliers μ_λ are transformed, and only row 0 and one row s
per coset sΛ of hat G.  Λ and M come from F.symmetry, found once per table,
and the labels from FieldSpec.trace_labels, once per field; the count side
scans the same rows, and both sides count a coset row |Λ| times.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .cdiff import BLOCK_ELEMENTS, _count_blocks, _kernel_name
from .errors import NotRationalInteger, SizeGuardExceeded
from .field import FieldSpec
from .functions import FunctionTable, Symmetry

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


def _width(sym: Symmetry) -> int:
    """The columns of the widest array a statistic holds: cols, or rows of hat G."""
    return max(len(sym.columns.cols), len(sym.rows))


def _take(F: FunctionTable, arr, vs=None):
    """Columns vs (every column when None) of F's (q, q, ...) array whose
    transformed columns (see Symmetry.columns) are arr, one block of rows at
    a time.  When M is trivial every v is its own representative, cols is
    0..q-1, and the whole array is arr itself."""
    spec, (cols, index, shift) = F.spec, F.symmetry.columns
    q = spec.q
    if vs is None:
        if len(cols) == q:
            return arr
        vs = np.arange(q)
    col, shift = index[vs], shift[vs]
    flat = arr.reshape(-1, *arr.shape[2:])   # [u, j] at u len(cols) + j
    out = np.empty((q, len(vs)) + arr.shape[2:], dtype=arr.dtype)
    rows, x = max(1, BLOCK_ELEMENTS // len(vs)), np.arange(q)[:, None]
    for u in range(0, q, rows):
        us = spec.mul_gen_power(x[u:u + rows], shift)   # λ^-1 u
        np.take(flat, us * len(cols) + col, axis=0, out=out[u:u + rows],
                mode="clip")   # in range: "raise" would buffer out
    return out


def _take_rows(F: FunctionTable, H):
    """(q, len(rows), p): [v, i] is H(t(s), v), s = F.symmetry.rows[i],
    gathered a block of v at a time from H, the columns transformed along
    u: H(t(s), r) = sum_u zeta^Tr(s u) G(u, r) (t = FieldSpec.trace_labels),
    and G(u, r μ_λ) = G(λ^-1 u, r) gives H(t(s), r μ_λ) = H(t(λs), r)."""
    (cols, index, shift), rows, spec = F.symmetry.columns, F.symmetry.rows, F.spec
    lam = -shift % (spec.q - 1)   # λ = g^lam[v]
    flat = H.reshape(-1, *H.shape[2:])   # [k, j] at k len(cols) + j
    out = np.empty((spec.q, len(rows)) + H.shape[2:], dtype=H.dtype)
    block = max(1, BLOCK_ELEMENTS // out[0].size)   # coefficients, as in _g_columns
    for v in range(0, spec.q, block):
        vs = slice(v, v + block)
        s = spec.mul_gen_power(rows, lam[vs, None])   # λs
        np.take(flat, spec.trace_labels[s] * len(cols) + index[vs, None],
                axis=0, out=out[vs], mode="clip")
    return out


def _over_guard(spec: FieldSpec, size_guard: int | None, width: int) -> bool:
    """The one Walsh guard: an array of q x width x p entries above
    size_guard (None: no guard)."""
    return size_guard is not None and spec.q * width * spec.p > size_guard


def _walsh_columns(F: FunctionTable, size_guard: int | None, width: int) -> np.ndarray:
    """W, an int64 (q, len(cols), p) array, [u, j] = W_F(u, cols[j]) in
    Z[zeta_p] for the transformed columns (see Symmetry.columns).  Every
    Walsh array starts here: it logs one DEBUG record on the "cdiffkit"
    logger with |Λ|, the columns transformed and the rows of hat G read, and
    raises first when the caller's arrays of q x width x p entries are over
    the guard (see _over_guard)."""
    spec, sym = F.spec, F.symmetry
    q, p, cols = spec.q, spec.p, sym.columns.cols
    _logger.debug("walsh array over GF(%d^%d): |stabilizer| %d, columns "
                  "transformed %d of %d, rows of hat G %d of %d", p,
                  spec.n, sym.order, len(cols), q, len(sym.rows), q)
    if _over_guard(spec, size_guard, width):
        raise SizeGuardExceeded(
            f"a Walsh array over GF({p}^{spec.n}) holds q x {width} x p = "
            f"{q * width * p} entries, above the guard of {size_guard}")
    # the one place the trace form enters: the one-hot of zeta^Tr(v F(x))
    # goes to row y = t(-x) (see FieldSpec.trace_labels); <u, y> = Tr(-u x),
    # so the transform puts W_F(u, v) at row u
    tr = spec.trace_all()
    y = spec.trace_labels[spec.neg_array(np.arange(q))]
    W = np.zeros((q, len(cols), p), dtype=np.int64)
    for j, v in enumerate(cols.tolist()):
        W[y, j, tr[spec.scale_array(v, F.values)]] = 1
    return _dft(W, p)


def walsh_table(F: FunctionTable) -> WalshTable:
    """All Walsh values of F; equal entries share one CyclotomicInt.  It
    holds q^2 references, so the guard counts all q columns."""
    spec, p = F.spec, F.spec.p
    W = _walsh_columns(F, WALSH_ENTRY_GUARD, spec.q)
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
    return WalshTable(F.spec, tuple(map(tuple, _take(F, objects).tolist())))


# ---------------------------------------------------------------------------
# exact character-sum reorganization of the convolution tensors
# ---------------------------------------------------------------------------

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


def _all_rows(head, rest, order: int) -> np.ndarray:
    """The histogram over every row from those of row 0 (head) and of the
    coset rows (rest), each of which stands for the order = |Λ| rows of its
    coset (see functions.Symmetry)."""
    freq = np.zeros(max(len(head), len(rest)), dtype=np.int64)
    freq[:len(head)] += head
    freq[:len(rest)] += order * rest
    return freq


def _g_columns(F: FunctionTable, W: np.ndarray, c: int) -> np.ndarray:
    """G(u, r) = W(u, r) * conj(W(u, c r)) over the transformed columns r
    of F.symmetry.columns, written over their Walsh values W a block of
    rows at a time; G has the symmetry of W (see Symmetry.columns)."""
    spec, p = F.spec, F.spec.p
    Wc = _take(F, W, spec.scale_array(c, F.symmetry.columns.cols))
    rows = max(1, BLOCK_ELEMENTS // W[0].size)
    for u in range(0, len(W), rows):
        a, b = W[u:u + rows], Wc[u:u + rows]
        # a conj(b) in Z[zeta_p]: the coefficient of zeta^k is sum_i a_i b_(i-k)
        a[...] = np.stack([sum(a[..., i] * b[..., (i - k) % p] for i in range(p))
                           for k in range(p)], axis=-1)
    return W


def _dft(arr: np.ndarray, p: int) -> np.ndarray:
    """The DFT over (Z_p)^m along the leading axis, len(arr) = p^m:
    out[k, ...] = sum_w zeta^<k, w> arr[w, ...], exact in Z[zeta_p] and in
    int64, with k and w read as vectors of base-p digits.

    Each entry's last coefficient is first subtracted from all of them, as
    in CyclotomicInt, so no multiple of 1 + zeta + ... + zeta^(p-1) = 0
    counts against the bound.  One p-point stage per digit; the twiddles
    rotate the coefficient axis, and each stage grows the largest
    coefficient by at most a factor of p, so p^m bounds the transform.

    arr is overwritten: the stages alternate between arr and one buffer of
    its size, so at most two such arrays are live.
    """
    arr -= arr[..., -1:]
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


def _hat_g_rows(F: FunctionTable, c: int,
                size_guard: int | None = WALSH_ENTRY_GUARD) -> np.ndarray:
    """R[t(t), i] = hat G(s, t) = q^2 n_F(s, -t, c) for s = F.symmetry.rows[i]
    (t is FieldSpec.trace_labels), shape (q, len(F.symmetry.rows), p).  G's
    columns are transformed along u, and the rows gathered from them (see
    _take_rows) along v.  Rebinding arr frees each input that _dft returns
    as its buffer, so at most two arrays are live, of at most _width
    columns: the guard counts those."""
    p = F.spec.p
    arr = _walsh_columns(F, size_guard, _width(F.symmetry))
    arr = _dft(_g_columns(F, arr, c), p)
    arr = _take_rows(F, arr)
    return _dft(arr, p)


def _walsh_histogram(F: FunctionTable, c: int,
                     size_guard: int | None = WALSH_ENTRY_GUARD) -> np.ndarray:
    """freq[m] = #{(a, b) : n_F(a, b, c) = m}, from the rows of hat G.

    The (j+1)-fold convolution tensor (W_F W_F^c)^{tensor (j+1)} (0, 0), the
    sum over u_1..u_j, v_1..v_j of conj(W)(sum u, sum v) W(sum u, c sum v)
    prod_i W(u_i,v_i) conj(W)(u_i,c v_i), is
    (1/q^2) * sum over characters chi of conj(hat G)(chi) * hat G(chi)^j with
    G(u, v) = W(u, v) conj(W)(u, c v).  Expanding G gives
    hat G(s, t) = q^2 n_F(s, -t, c), a rational integer, so the tensor is
    q^(2j) sum_m freq[m] m^(j+1) over the histogram of the checked counts
    hat G / q^2: row 0 counted once and each coset row |Λ| times (_all_rows).
    """
    R = _hat_g_rows(F, c, size_guard)
    head, rest = (_count_frequencies(part, F.spec.q ** 2) for part in (R[:, :1], R[:, 1:]))
    return _all_rows(head, rest, F.symmetry.order)


def _count_histogram(F: FunctionTable, c: int) -> np.ndarray:
    """freq[m] = #{(a, b) : n_F(a, b, c) = m}, the count side: one
    _count_blocks pass over F's stabilizer rows, weighted as the Walsh
    side's rows (_all_rows).  Logs one DEBUG record on the "cdiffkit"
    logger with |Λ|, the rows scanned and the kernel path."""
    spec, sym = F.spec, F.symmetry
    q = spec.q
    _logger.debug("counts over GF(%d^%d): |stabilizer| %d, rows scanned %d of %d, "
                  "kernel %s", spec.p, spec.n, sym.order, len(sym.rows), q,
                  _kernel_name(spec))
    freq = np.zeros(2 * (q + 1), dtype=np.int64)
    for a_list, mult in _count_blocks(spec, F.values, c, sym.rows):
        # mult[i, b] = n_F(a_i, b, c); freq[k (q + 1) + m] counts the (a, b)
        # with n_F = m, k = 0 for row 0 and 1 for the coset rows
        freq += np.bincount((mult + (a_list != 0)[:, None] * (q + 1)).ravel(),
                            minlength=2 * (q + 1))
    return _all_rows(freq[:q + 1], freq[q + 1:], sym.order)


def _sum(freq, term) -> int:
    """sum_m freq[m] term(m) in Python integers: over a histogram of the
    counts n_F, the sum of term(n_F) over every (a, b)."""
    return sum(f * term(m) for m, f in enumerate(freq.tolist()) if f)


def _pcn(q: int, freq) -> int:
    """q^2 sum n_F^2 (see pcn_power_sum)."""
    return q ** 2 * _sum(freq, lambda m: m * m)


def _apcn(q: int, freq) -> tuple:
    """(q^4 sum n_F^3, 3 q^2 pcn - 2 q^6) (see apcn_statistic)."""
    return q ** 4 * _sum(freq, lambda m: m ** 3), 3 * q ** 2 * _pcn(q, freq) - 2 * q ** 6


def _phi_sum(freq, delta: int) -> int:
    """sum n_F phi(n_F), phi(m) = (m-1)...(m-delta): >= 0, and zero iff no
    count exceeds delta."""
    return _sum(freq, lambda m: m * math.prod(m - r for r in range(1, delta + 1)))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _check_args(spec: FieldSpec, c: int, delta: int = 1):
    """Raise ValueError unless c is a rank of spec other than 1 and delta >= 1."""
    spec._check(c)
    if c == 1:
        raise ValueError(
            "c = 1 is rejected: with a = 0 admissible the count n_F(0, b, 1) "
            "equals q for every b, so the characterization is vacuous there")
    if delta < 1:
        raise ValueError("delta must be >= 1")


def pcn_power_sum(F: FunctionTable, c: int) -> int:
    """S = sum_{u,v} |W(u,v)|^2 |W(u,cv)|^2, an exact integer.

    S >= p^(4n) always, with equality iff F is PcN for this c (uniformity 1
    with a = 0 admissible).  |W(u,v)|^2 |W(u,cv)|^2 = |G(u,v)|^2 with
    G(u,v) = W(u,v) conj(W(u,cv)), so by Parseval over (u, v)
    S = q^-2 sum |hat G|^2 = q^2 sum_{a,b} n_F(a,b,c)^2, a sum over
    _walsh_histogram.
    """
    spec = F.spec
    _check_args(spec, c)
    return _pcn(spec.q, _walsh_histogram(F, c))


def apcn_statistic(F: FunctionTable, c: int,
                   size_guard: int | None = WALSH_ENTRY_GUARD):
    """(lhs, rhs) of the 2-uniformity characterization; lhs >= rhs always,
    equality iff the c-differential uniformity is at most 2 (a = 0 admissible).

    lhs is the 6-fold Walsh convolution sum
      sum conj(W)(u1+u2, v1+v2) W(u1+u2, c(v1+v2))
          * prod_i W(u_i, v_i) conj(W)(u_i, c v_i)
    = q^4 sum_{a,b} n_F(a,b,c)^3, and rhs = 3 p^(2n) * pcn_power_sum - 2 p^(6n).
    size_guard bounds the q x (columns or rows held) x p entries of a Walsh
    array (see _hat_g_rows); None lifts it.
    """
    spec = F.spec
    _check_args(spec, c)
    return _apcn(spec.q, _walsh_histogram(F, c, size_guard))


def convolution_statistic(F: FunctionTable, c: int, delta: int):
    """(count_side, walsh_side) for phi(x) = (x-1)...(x-delta).

    count_side = sum_{a,b} n_F phi(n_F) over the counts n_F(a,b,c);
    nonnegative, zero iff the c-differential uniformity is at most delta
    (a = 0 admissible).  walsh_side evaluates the identical quantity
    through the Walsh convolution tensors (see _walsh_histogram) and is
    None when its arrays would exceed WALSH_ENTRY_GUARD; whenever both
    sides are computed they are equal integers.
    """
    spec = F.spec
    _check_args(spec, c, delta)
    count_side = _phi_sum(_count_histogram(F, c), delta)
    if _over_guard(spec, WALSH_ENTRY_GUARD, _width(F.symmetry)):
        return count_side, None
    return count_side, _phi_sum(_walsh_histogram(F, c), delta)


def walsh_check(F: FunctionTable, c: int, delta: int):
    """(pcn_power_sum, apcn_statistic, convolution_statistic) of (F, c,
    delta) from one query: one argument check, one Walsh histogram and one
    count histogram.  Above WALSH_ENTRY_GUARD it raises as pcn_power_sum
    does, before the count pass."""
    spec = F.spec
    _check_args(spec, c, delta)
    walsh = _walsh_histogram(F, c)
    counts = _count_histogram(F, c)
    return (_pcn(spec.q, walsh), _apcn(spec.q, walsh),
            (_phi_sum(counts, delta), _phi_sum(walsh, delta)))


def derivative_walsh_statistic(F: FunctionTable, c: int, a: int, delta: int) -> int:
    """phi-statistic sum_y N_y phi(N_y) of one fixed c-derivative
    D = x -> F(x+a) - cF(x), N_y = #{x : D(x) = y}, evaluated from the u = 0
    row of D's Walsh transform: sum_{v_1..v_j} conj(W_D)(0, sum v_i)
    prod_i W_D(0, v_i) = q^j sum_y N_y^(j+1), and transforming that row
    gives q N_y.

    Nonnegative; zero iff no value of D is taken more than delta times.
    Only (q, p) arrays are formed.
    """
    spec = F.spec
    _check_args(spec, c, delta)
    spec._check(a)
    q, p = spec.q, spec.p
    [(_, counts)] = _count_blocks(spec, F.values, c, np.array([a]))
    # the transform of D's value histogram is g[k] = sum_y #{x : D(x) = y}
    # zeta^<k, y>, and transforming again gives q #{x : D(x) = y} at the
    # digits of -y
    hist = np.zeros((q, p), dtype=np.int64)
    hist[:, 0] = counts[0]
    ghat = _dft(_dft(hist, p), p)
    return _phi_sum(_count_frequencies(ghat, q), delta)
