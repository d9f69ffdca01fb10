"""Exact Walsh-Hadamard transforms over Z[zeta_p] and the uniformity statistics.

Walsh values live in the cyclotomic integers Z[zeta_p]; keeping them exact
makes "equality iff PcN/APcN/delta-uniform" a statement about integers
rather than floating-point tolerances.

The headline identities, all proved by expanding difference counts into
character sums (m = n throughout; q = p^n):

* pcn_power_sum:     sum_{u,v} |W(u,v)|^2 |W(u,cv)|^2  >=  p^(4n),
                     equality iff every admissible c-derivative (a = 0
                     included) is a bijection.
* apcn_statistic:    the 6-fold convolution sum against
                     3 p^(2n) (pcn sum) - 2 p^(6n), equality iff the
                     uniformity is at most 2.
* convolution_statistic: for any delta, sum_{a,b} phi(n_F(a,b,c)) with
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdiff import BLOCK_ELEMENTS, _count_blocks, derivative_rows
from .errors import NotRationalInteger, SizeGuardExceeded
from .field import FieldSpec
from .functions import FunctionTable

WALSH_ENTRY_GUARD = 2 ** 23   # bound on the q^2 p entries of one Walsh array


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


def _walsh_array(F: FunctionTable,
                 size_guard: int | None = WALSH_ENTRY_GUARD) -> np.ndarray:
    """All Walsh values as an int64 array of shape (q, q, p); entry [u, v]
    is the exponent-count vector of W_F(u, v).  Every (q, q, p) array of the
    Walsh side starts here; q^2 p > size_guard raises before any is made."""
    spec = F.spec
    q = spec.q
    if size_guard is not None and q * q * spec.p > size_guard:
        raise SizeGuardExceeded(
            f"a Walsh array over GF({spec.p}^{spec.n}) holds q^2 p = "
            f"{q * q * spec.p} entries, above the guard of {size_guard}")
    # zeta^Tr(v F(x)) at [x, v]; the transform along x then gives
    # sum_x zeta^(Tr(v F(x)) + Tr(s x)) = W_F(-s, v)
    tr = spec.trace_all()
    W = np.zeros((q, q, spec.p), dtype=np.int64)
    x = np.arange(q)
    for v in range(q):
        W[x, v, tr[spec.scale_array(v, F.values)]] = 1
    W = _transform_1d(spec, W, 0)   # rebound: the input is freed before the gather
    return W[spec.neg_array(x)]


def walsh_table(F: FunctionTable) -> WalshTable:
    """All Walsh values of F; equal entries share one CyclotomicInt."""
    arr = _walsh_array(F)
    p = F.spec.p
    shared = {}

    def entry(coeffs):
        coeffs = tuple(coeffs)
        z = shared.get(coeffs)
        if z is None:
            z = shared[coeffs] = CyclotomicInt(p, coeffs)
        return z

    # canonical coefficients (last one zero) are equal iff the values are;
    # one row of u at a time, so the q^2 p coefficients never exist as
    # Python lists all at once
    return WalshTable(F.spec, tuple(tuple(map(entry, (row - row[:, -1:]).tolist()))
                                    for row in arr))


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


def _g_array(F: FunctionTable, c: int, W: np.ndarray) -> np.ndarray:
    """G(u, v) = W(u, v) * conj(W(u, c v)), written over the (q, q, p) array
    W a block of rows at a time, since row u of G reads only row u of W."""
    spec = F.spec
    q, p = spec.q, spec.p
    cv = spec.scale_array(c, np.arange(q))
    rows = max(1, BLOCK_ELEMENTS // (q * p))
    for u in range(0, q, rows):
        block = W[u:u + rows]
        block[...] = _cyclic_mul(block, _conj_axis(block[:, cv], p), p)
    return W


def _transform_1d(spec: FieldSpec, arr: np.ndarray, axis: int) -> np.ndarray:
    """Character transform along one group axis:
    out[s, ...] = sum_w zeta^(Tr(s w)) arr[w, ...], exact in int64.

    Tr(s w) = <t(s), digits(w)> mod p with digit i of t(s) = Tr(s alpha^i),
    so this is the DFT over (Z_p)^n (n p-point stages, one per base-p digit
    of w) followed by a gather by t.  Its twiddle factors are rotations of
    the coefficient axis; each stage grows the largest coefficient by at
    most a factor of p, so q = p^n bounds the whole transform.

    arr is overwritten: the stages and the gather alternate between arr and
    one buffer of its size, so at most two such arrays are live.
    """
    q, p, n = spec.q, spec.p, spec.n
    arr = np.moveaxis(arr, axis, 0)
    peak = int(np.abs(arr).max()) if arr.size else 0
    if peak and peak > (2 ** 62) // (q * p):
        raise SizeGuardExceeded("transform would overflow int64 accumulators")
    bufs = (arr, np.empty_like(arr))
    digit_shape = (p,) * n + arr.shape[1:]      # one axis per digit of w
    for i in range(n):
        # splitting the leading axis is always a view, so out writes the buffer
        y = np.moveaxis(bufs[i % 2].reshape(digit_shape), i, 0)
        out = np.moveaxis(bufs[(i + 1) % 2].reshape(digit_shape), i, 0)
        for k in range(p):
            out[k] = y[0]
            for d in range(1, p):
                out[k] += np.roll(y[d], k * d % p, axis=-1)   # zeta^(k d) y[d]
    tr = spec.trace_all()
    # the polynomial basis element alpha^i has rank p^i
    t = sum(tr[spec.scale_array(p ** i, np.arange(q))] * p ** i for i in range(n))
    src, result = bufs[n % 2], bufs[(n + 1) % 2]
    step = q // p
    for s in range(0, q, step):     # q/p rows at a time: its temporary stays small
        result[s:s + step] = src[t[s:s + step]]
    return np.moveaxis(result, 0, axis)


def _walsh_power_sums(F: FunctionTable, c: int, top: int,
                      size_guard: int | None = WALSH_ENTRY_GUARD) -> list:
    """[sum_{a,b} n_F(a,b,c)^j for j = 1..top], from one transform of G.

    The (j+1)-fold convolution tensor (W_F W_F^c)^{tensor (j+1)} (0, 0), the
    sum over u_1..u_j, v_1..v_j of conj(W)(sum u, sum v) W(sum u, c sum v)
    prod_i W(u_i,v_i) conj(W)(u_i,c v_i), is p^(2jn) times the j-th sum and
    (1/q^2) * sum over characters chi of conj(hat G)(chi) * hat G(chi)^j with
    G(u, v) = W(u, v) conj(W)(u, c v).  Expanding G gives
    hat G(s, t) = q^2 n_F(s, -t, c), a rational integer, so every j comes
    from one histogram of the checked counts hat G / q^2.
    """
    q = F.spec.q
    # W becomes G in place and each transform reuses its input, so at most
    # two (q, q, p) arrays are live
    Ghat = _transform_1d(F.spec, _transform_1d(
        F.spec, _g_array(F, c, _walsh_array(F, size_guard)), 0), 1)
    return _power_sums(_count_frequencies(Ghat, q * q), top)


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
    with a = 0 admissible).
    """
    _reject_c1(c)
    # |W(u,v)|^2 |W(u,cv)|^2 = |G(u,v)|^2 with G(u,v) = W(u,v) conj(W(u,cv))
    return _conj_norm_sum(_g_array(F, c, _walsh_array(F)), F.spec.p).as_integer()


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
    """[sum over all a, b of n_F(a, b, c)^j for j = 1..top] with
    n_F(a, b, c) = #{x : F(x+a) - cF(x) = F(b+a) - cF(b)}, from one pass."""
    q = F.spec.q
    freq = np.zeros(q + 1, dtype=np.int64)
    for _, mult in _count_blocks(F.spec, F.values, c, np.arange(q)):
        # sum over b of mult[d[b]]^j  ==  sum over hit values y of mult[y]^(j+1)
        freq += np.bincount(mult.ravel(), minlength=q + 1)
    return _power_sums(freq, top)


def convolution_statistic(F: FunctionTable, c: int, delta: int):
    """(count_side, walsh_side) for phi(x) = (x-1)...(x-delta).

    count_side = p^(2n) A_0 + sum_j A_j sum_{a,b} n_F(a,b,c)^j; nonnegative,
    zero iff the c-differential uniformity is at most delta (a = 0
    admissible).  walsh_side evaluates the identical quantity through the
    Walsh convolution tensors (see _walsh_power_sums) and is None when the
    Walsh arrays would exceed WALSH_ENTRY_GUARD; whenever both sides are
    computed they are equal integers.
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
    # g[v] = W_D(0, v) = sum_y #{x : D(x) = y} zeta^(Tr(v y)), the transform
    # of D's value histogram; then hat g(t) = sum_v zeta^(Tr(t v)) g(v)
    # = q #{x : D(x) = -t}
    hist = np.zeros((q, p), dtype=np.int64)
    hist[:, 0] = np.bincount(dvals, minlength=q)
    ghat = _transform_1d(spec, _transform_1d(spec, hist, 0), 0)
    return _phi(delta, q, _power_sums(_count_frequencies(ghat, q), delta))
