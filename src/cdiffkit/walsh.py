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

from .cdiff import _count_blocks, derivative_rows
from .errors import NotRationalInteger, SizeGuardExceeded
from .field import FieldSpec
from .functions import FunctionTable

APCN_SIZE_GUARD = 64                 # q bound for apcn_statistic
CONVOLUTION_TERM_GUARD = 10 ** 9     # q^(2 delta) bound for the Walsh side
DERIVATIVE_TERM_GUARD = 10 ** 9      # q^delta bound for the derivative statistic


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


def _walsh_array(F: FunctionTable) -> np.ndarray:
    """All Walsh values as an int64 array of shape (q, q, p); entry [u, v]
    is the exponent-count vector of W_F(u, v)."""
    spec = F.spec
    q = spec.q
    # zeta^0 at [x, F(x)]; the transform along v gives zeta^Tr(v F(x)), the
    # one along x then gives sum_x zeta^(Tr(v F(x)) + Tr(s x)) = W_F(-s, v)
    graph = np.zeros((q, q, spec.p), dtype=np.int64)
    graph[np.arange(q), F.values, 0] = 1
    graph = _transform_1d(spec, graph, 1)
    return _transform_1d(spec, graph, 0)[spec.neg_array(np.arange(q))]


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


def _conj_power_sum(arr: np.ndarray, j: int, p: int) -> CyclotomicInt:
    """sum over the entries z of a (..., p) array of conj(z) * z^j, exactly."""
    # Shifting each entry by its smallest coefficient keeps the element
    # (1 + zeta + ... + zeta^(p-1) = 0) and leaves coefficients >= 0.  With L
    # the largest L1 norm of a shifted entry, every coefficient of every
    # partial product conj(z) z^i (i <= j) and of every partial sum is at most
    # L^(j+1) * entries in absolute value, so int64 is exact below 2^63;
    # otherwise the same code runs on Python integers (object dtype).
    z = arr.reshape(-1, p)
    z = z - z.min(axis=1, keepdims=True)
    L = int(z.sum(axis=1).max())
    if L ** (j + 1) * len(z) >= 2 ** 63:
        z = z.astype(object)
    term = _conj_axis(z, p)
    for _ in range(j):
        term = _cyclic_mul(term, z, p)
    return CyclotomicInt(p, term.sum(axis=0))


def _g_array(F: FunctionTable, c: int, W: np.ndarray) -> np.ndarray:
    """G(u, v) = W(u, v) * conj(W(u, c v)) as a (q, q, p) array."""
    spec = F.spec
    cv = spec.scale_array(c, np.arange(spec.q))
    return _cyclic_mul(W, _conj_axis(W[:, cv], spec.p), spec.p)


def _transform_1d(spec: FieldSpec, arr: np.ndarray, axis: int) -> np.ndarray:
    """Character transform along one group axis:
    out[s, ...] = sum_w zeta^(Tr(s w)) arr[w, ...], exact in int64.

    Tr(s w) = <t(s), digits(w)> mod p with digit i of t(s) = Tr(s alpha^i),
    so this is the DFT over (Z_p)^n (n p-point stages, one per base-p digit
    of w) followed by a gather by t.  Its twiddle factors are rotations of
    the coefficient axis; each stage grows the largest coefficient by at
    most a factor of p, so q = p^n bounds the whole transform.
    """
    q, p, n = spec.q, spec.p, spec.n
    arr = np.moveaxis(arr, axis, 0)
    peak = int(np.abs(arr).max()) if arr.size else 0
    if peak and peak > (2 ** 62) // (q * p):
        raise SizeGuardExceeded("transform would overflow int64 accumulators")
    x = arr.reshape((p,) * n + arr.shape[1:])    # one axis per digit of w
    for i in range(n):
        y = np.moveaxis(x, i, 0)
        out = np.empty_like(y)
        for k in range(p):
            out[k] = y[0]
            for d in range(1, p):
                out[k] += np.roll(y[d], k * d % p, axis=-1)   # zeta^(k d) y[d]
        x = np.moveaxis(out, 0, i)
    del y      # frees the last stage's input before the gather
    tr = spec.trace_all()
    # the polynomial basis element alpha^i has rank p^i
    t = sum(tr[spec.scale_array(p ** i, np.arange(q))] * p ** i for i in range(n))
    return np.moveaxis(x.reshape(arr.shape)[t], 0, axis)


def _convolution_tensor(F: FunctionTable, c: int, j: int,
                        W: np.ndarray | None = None) -> CyclotomicInt:
    """(W_F W_F^c)^{tensor (j+1)} (0, 0) =
    sum over u_1..u_j, v_1..v_j of
      conj(W)(sum u, sum v) * W(sum u, c sum v) * prod_i W(u_i,v_i) conj(W)(u_i,c v_i).

    Computed exactly as (1/q^2) * sum over characters chi of
    conj(hat G)(chi) * hat G(chi)^j with G(u, v) = W(u, v) conj(W)(u, c v);
    the transform collapses the q^(2j) summation to O(q n p^2) coefficient
    operations per transformed vector.
    """
    spec = F.spec
    p, q = spec.p, spec.q
    if W is None:
        W = _walsh_array(F)
    Ghat = _transform_1d(spec, _transform_1d(spec, _g_array(F, c, W), 0), 1)
    return _exact_divide(_conj_power_sum(Ghat, j, p), q * q)


def _exact_divide(z: CyclotomicInt, d: int) -> CyclotomicInt:
    out = []
    for cf in z.coeffs:
        if cf % d:
            raise NotRationalInteger(f"non-exact division of {z!r} by {d}")
        out.append(cf // d)
    return CyclotomicInt(z.p, out)


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
    return _conj_power_sum(_g_array(F, c, _walsh_array(F)), 1, F.spec.p).as_integer()


def apcn_statistic(F: FunctionTable, c: int, size_guard: int | None = APCN_SIZE_GUARD):
    """(lhs, rhs) of the 2-uniformity characterization; lhs >= rhs always,
    equality iff the c-differential uniformity is at most 2 (a = 0 admissible).

    lhs is the 6-fold Walsh convolution sum
      sum conj(W)(u1+u2, v1+v2) W(u1+u2, c(v1+v2))
          * prod_i W(u_i, v_i) conj(W)(u_i, c v_i)
    and rhs = 3 p^(2n) * pcn_power_sum - 2 p^(6n).
    """
    _reject_c1(c)
    spec = F.spec
    if size_guard is not None and spec.q > size_guard:
        raise SizeGuardExceeded(
            f"apcn_statistic guarded to q <= {size_guard}; pass size_guard=None "
            "to override")
    W = _walsh_array(F)
    lhs = _convolution_tensor(F, c, 2, W).as_integer()
    pcn = _convolution_tensor(F, c, 1, W).as_integer()
    n = spec.n
    rhs = 3 * spec.p ** (2 * n) * pcn - 2 * spec.p ** (2 * (3 * n))
    return lhs, rhs


def counts_power_sum(F: FunctionTable, c: int, j: int) -> int:
    """sum over all a, b of n_F(a, b, c)^j with
    n_F(a, b, c) = #{x : F(x+a) - cF(x) = F(b+a) - cF(b)}."""
    total = 0
    for _, mult in _count_blocks(F.spec, F.values, c, F.spec.q):
        # sum over b of mult[d[b]]^j  ==  sum over hit values y of mult[y]^(j+1)
        # (exactly, in Python integers, from the histogram of multiplicities)
        freq = np.bincount(mult.ravel())
        total += sum(int(f) * m ** (j + 1) for m, f in enumerate(freq) if f)
    return total


def convolution_statistic(F: FunctionTable, c: int, delta: int,
                          term_guard: int | None = CONVOLUTION_TERM_GUARD,
                          want_walsh_side: bool = True):
    """(count_side, walsh_side) for phi(x) = (x-1)...(x-delta).

    count_side = p^(2n) A_0 + sum_j A_j sum_{a,b} n_F(a,b,c)^j; nonnegative,
    zero iff the c-differential uniformity is at most delta (a = 0
    admissible).  walsh_side evaluates the identical quantity through the
    Walsh convolution tensors and is None when q^(2 delta) exceeds the term
    guard; whenever both sides are computed they are equal integers.
    """
    _reject_c1(c)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    spec = F.spec
    q, n = spec.q, spec.n
    A = phi_coefficients(delta)
    count_side = spec.p ** (2 * n) * A[0]
    for j in range(1, delta + 1):
        count_side += A[j] * counts_power_sum(F, c, j)

    walsh_side = None
    if want_walsh_side:
        if term_guard is not None and q ** (2 * delta) > term_guard:
            raise SizeGuardExceeded(
                f"walsh side guarded to q^(2 delta) <= {term_guard}; "
                "pass want_walsh_side=False for the count side only, or "
                "term_guard=None to override")
        W = _walsh_array(F)
        walsh_side = spec.p ** (2 * n) * A[0]
        for j in range(1, delta + 1):
            tensor = _convolution_tensor(F, c, j, W).as_integer()
            scaled, rem = divmod(A[j] * tensor, spec.p ** (j * 2 * n))
            if rem:
                raise NotRationalInteger(
                    f"tensor for j={j} not divisible by p^(2jn)")
            walsh_side += scaled
    return count_side, walsh_side


def derivative_walsh_statistic(F: FunctionTable, c: int, a: int, delta: int,
                               term_guard: int | None = DERIVATIVE_TERM_GUARD) -> int:
    """phi-statistic of one fixed c-derivative D = x -> F(x+a) - cF(x),
    evaluated from the u = 0 row of D's Walsh transform:

      p^n A_0 + sum_j p^(-jn) A_j
          sum_{v_1..v_j} conj(W_D)(0, sum v_i) prod_i W_D(0, v_i)

    Nonnegative; zero iff no value of D is taken more than delta times.
    """
    _reject_c1(c)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    spec = F.spec
    q, p, n = spec.q, spec.p, spec.n
    if term_guard is not None and q ** delta > term_guard:
        raise SizeGuardExceeded(
            f"derivative statistic guarded to q^delta <= {term_guard}")
    dvals = derivative_rows(spec, F.values, c, [a])[0]
    # g[v] = W_D(0, v) = sum_y #{x : D(x) = y} zeta^(Tr(v y)), the transform
    # of D's value histogram; then hat g(t) = sum_v zeta^(Tr(t v)) g(v)
    hist = np.zeros((q, p), dtype=np.int64)
    hist[:, 0] = np.bincount(dvals, minlength=q)
    ghat = _transform_1d(spec, _transform_1d(spec, hist, 0), 0)
    A = phi_coefficients(delta)
    total = p ** n * A[0]
    for j in range(1, delta + 1):
        s_int = _exact_divide(_conj_power_sum(ghat, j, p), q).as_integer()
        scaled, rem = divmod(A[j] * s_int, p ** (j * n))
        if rem:
            raise NotRationalInteger("derivative sum not divisible by p^(jn)")
        total += scaled
    return total
