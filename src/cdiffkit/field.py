"""Exact arithmetic for GF(p^n) with table acceleration.

Field elements are plain integer ranks in [0, q).  The base-p digits of a
rank, least significant first, are the coefficients of the element in the
polynomial basis 1, x, x^2, ..., x^(n-1).  Rank 0 is the additive identity
and rank 1 the multiplicative identity.

A FieldSpec owns the modulus polynomial and the precomputed tables
(log/antilog, negation, inversion, Frobenius, trace).  Addition is
digit-wise and needs no q x q table: for p = 2 it is XOR on ranks, for
n = 1 it is addition mod p, and otherwise each rank splits as h*m + l with
m = p^ceil(n/2), so x + y = HI[h_x, h_y] + LO[l_x, l_y] from two digit-sum
tables.  LO has m^2 entries (q for even n, p*q for odd n) and HI at most q.
Multiplication, inversion, powers, Frobenius and trace read log/antilog
tables built for every field; fields above LOG_TABLE_BOUND are refused.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    NonDivisorSubfieldDegree,
    NonPrimeCharacteristic,
    ReducibleModulus,
    SizeGuardExceeded,
)

LOG_TABLE_BOUND = 1 << 20   # largest q whose tables are built


def _digit_sum_table(p: int, k: int):
    """p^k x p^k table of the digit-wise sums mod p of the ranks below p^k."""
    t = np.zeros((1, 1), dtype=np.int32)
    d = np.arange(p, dtype=np.int32)
    top = (d[:, None] + d[None, :]) % p
    for _ in range(k):
        s = len(t)
        # rank d*s + r below p*s: the top digit of the sum is (d_x + d_y) % p
        t = (top[:, None, :, None] * s + t[None, :, None, :]).reshape(p * s, p * s)
    return t


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _int_digits(r: int, p: int):
    """Base-p digits of r, least significant first, with no trailing zeros."""
    out = []
    while r:
        r, d = divmod(r, p)
        out.append(d)
    return out


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for j, y in enumerate(m):
            a[shift + j] = (a[shift + j] - c * y) % p
        _poly_trim(a)
    return _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod(base, e, m, p):
    result = [1]
    base = _poly_mod(base, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _has_root(mod, p):
    n = len(mod) - 1
    for r in range(p):
        acc = 0
        xp = 1
        for c in mod:
            acc = (acc + c * xp) % p
            xp = (xp * r) % p
        if acc == 0:
            return True
    return False


def _monic_polys(p, degree):
    for m in range(p ** degree):
        coeffs = []
        r = m
        for _ in range(degree):
            coeffs.append(r % p)
            r //= p
        yield coeffs + [1]


def is_irreducible(modulus, p: int) -> bool:
    """Irreducibility over F_p: trial division up to degree 4, gcd criterion above."""
    n = len(modulus) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if n <= 4:
        if _has_root(modulus, p):
            return False
        if n <= 3:
            return True
        for d in _monic_polys(p, 2):
            if not _poly_mod(modulus, d, p):
                return False
        return True
    # x^(p^n) == x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for prime r | n
    x = [0, 1]
    xq = _poly_powmod(x, p ** n, modulus, p)
    diff = [(a - b) % p for a, b in
            zip(xq + [0] * len(x), x + [0] * len(xq))]
    if _poly_trim(diff):
        return False
    for r in _prime_factors(n):
        xe = _poly_powmod(x, p ** (n // r), modulus, p)
        diff = [(a - b) % p for a, b in
                zip(xe + [0] * len(x), x + [0] * len(xe))]
        g = _poly_gcd(modulus, _poly_trim(diff), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _prime_factors(m):
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def find_default_modulus(p: int, n: int):
    """Smallest primitive monic degree-n polynomial over F_p.

    Candidates are ordered by their coefficient vector read as a base-p
    integer, constant term least significant; the same (p, n) always yields
    the same modulus.
    """
    for mod in _monic_polys(p, n):
        if is_irreducible(mod, p) and _is_generator(_x_rank(mod, p), mod, p):
            return mod
    raise AssertionError(f"no primitive polynomial of degree {n} over F_{p}")


def _x_rank(mod, p):
    """Rank of the class of x in F_p[x]/(mod)."""
    return p if len(mod) > 2 else (-mod[0]) % p


def _is_generator(g: int, mod, p: int) -> bool:
    """Does the element of rank g generate the multiplicative group of
    F_p[x]/(mod), mod irreducible?  g != 0 and g^((q-1)/r) != 1 for every
    prime r of q - 1."""
    q = p ** (len(mod) - 1)
    return g != 0 and all(_poly_powmod(_int_digits(g, p), (q - 1) // r, mod, p) != [1]
                          for r in _prime_factors(q - 1))


class FieldSpec:
    """A concrete model of GF(p^n): modulus plus precomputed tables.

    Immutable after construction; safe to share between threads and
    processes.  All arithmetic methods are pure.
    """

    def __init__(self, p: int, n: int, modulus=None):
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeCharacteristic(f"p = {p} is not prime")
        if not isinstance(n, int) or n < 1:
            raise DegreeMismatch(f"extension degree n = {n} must be >= 1")
        self.p = p
        self.n = n
        self.q = p ** n
        if self.q > LOG_TABLE_BOUND:
            raise SizeGuardExceeded(
                f"field tables need q <= {LOG_TABLE_BOUND}; q = {self.q}")
        if modulus is None:
            modulus = find_default_modulus(p, n)
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {n}, got {modulus}")
        if not is_irreducible(modulus, p):
            raise ReducibleModulus(f"{modulus} factors over F_{p}")
        self.modulus = tuple(modulus)

        # digit-wise: digit i of -x is -x_i mod p
        r = np.arange(self.q)
        self._neg = sum((-(r // p ** i) % p) * p ** i for i in range(n)).astype(np.int32)
        self._neg.setflags(write=False)

        # odd p, n > 1: rank r = h*m + l, and x + y = HI[h_x, h_y] + LO[l_x, l_y]
        self._split = self._hi = self._lo = None
        if p != 2 and n > 1:
            k = (n + 1) // 2
            self._split = m = p ** k
            self._lo = _digit_sum_table(p, k)
            self._hi = _digit_sum_table(p, n - k) * m
            for t in (self._lo, self._hi):
                t.setflags(write=False)

        self._build_log_tables()   # after the addition tables, which it uses
        self._build_unary_tables()

    # -- construction helpers ------------------------------------------------

    def _scalar_mul_poly(self, x: int, y: int) -> int:
        p = self.p
        prod = _poly_mod(_poly_mul(_int_digits(x, p), _int_digits(y, p), p),
                         self.modulus, p)
        r = 0
        for c in reversed(prod):
            r = r * p + c
        return r

    def _build_log_tables(self):
        q = self.q
        gen = self._find_generator()
        mulg = self._mul_map(gen).tolist()
        walk = [1]
        for _ in range(q - 1):
            walk.append(mulg[walk[-1]])
        if walk[-1] != 1 or len(set(walk)) != q - 1:
            raise AssertionError("generator walk failed")
        exp = np.array(walk[:-1] * 2, dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        log[exp[:q - 1]] = np.arange(q - 1)
        exp.setflags(write=False)
        log.setflags(write=False)
        self._exp = exp
        self._log = log
        self.primitive_rank = gen

    def _mul_map(self, g: int):
        """The map r -> g*r over all q ranks.

        It is F_p-linear in the digits of r: for r' < p^i and a digit d,
        g*(d p^i + r') = d (g x^i) + g r'.  So the map over the ranks below
        p^(i+1) is the digit-wise sum of the p multiples of g x^i with the
        map below p^i, built a digit at a time in O(q) memory."""
        p, n = self.p, self.n
        weights = p ** np.arange(n)
        out = np.zeros(1, dtype=np.int64)
        for i in range(n):
            gx = _int_digits(self._scalar_mul_poly(g, p ** i), p)
            gx = np.array(gx + [0] * (n - len(gx)))
            multiples = (np.arange(p)[:, None] * gx) % p @ weights
            out = self.add_arrays(multiples[:, None], out[None, :]).ravel()
        return out

    def _find_generator(self):
        # the canonical modulus is primitive, so the class of x generates;
        # probe it first, then fall back to a search for custom moduli
        first = _x_rank(self.modulus, self.p)
        rest = (r for r in range(1, self.q) if r != first)   # 1 generates GF(2)
        for g in itertools.chain([first], rest):
            if _is_generator(g, self.modulus, self.p):
                return g
        raise AssertionError("no generator found")

    def _build_unary_tables(self):
        q, p = self.q, self.p
        exp = self._exp
        idx = np.arange(q - 1)
        frob = np.zeros(q, dtype=np.int32)
        frob[exp[:q - 1]] = exp[(idx * p) % (q - 1)]
        inv = np.zeros(q, dtype=np.int32)
        inv[exp[:q - 1]] = exp[(q - 1 - idx) % (q - 1)]
        cur = np.arange(q, dtype=np.int32)
        acc = np.zeros(q, dtype=np.int32)
        for _ in range(self.n):
            acc = self.add_arrays(acc, cur)
            cur = frob[cur]
        trace = acc  # ranks < p, i.e. prime-subfield constants
        for t in (frob, inv, trace):
            t.setflags(write=False)
        self._frob = frob
        self._inv = inv
        self._trace = trace

    # -- scalar operations ----------------------------------------------------

    def _check(self, x):
        if not 0 <= x < self.q:
            raise ValueError(f"rank {x} outside [0, {self.q})")
        return int(x)

    def add(self, x: int, y: int) -> int:
        x, y = self._check(x), self._check(y)
        if self.p == 2:
            return x ^ y
        if self._split is None:
            return (x + y) % self.p
        hx, lx = divmod(x, self._split)
        hy, ly = divmod(y, self._split)
        return int(self._hi[hx, hy] + self._lo[lx, ly])

    def neg(self, x: int) -> int:
        return int(self._neg[self._check(x)])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        x, y = self._check(x), self._check(y)
        if x == 0 or y == 0:
            return 0
        return int(self._exp[self._log[x] + self._log[y]])

    def inv(self, x: int) -> int:
        x = self._check(x)
        if x == 0:
            raise DivisionByZero("inverse of 0")
        return int(self._inv[x])

    def pow(self, x: int, e: int) -> int:
        x = self._check(x)
        e = int(e)
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("0 raised to a negative power")
        return int(self._exp[int(self._log[x]) * e % (self.q - 1)])

    def frobenius(self, x: int) -> int:
        return int(self._frob[self._check(x)])

    def trace_abs(self, x: int) -> int:
        return int(self._trace[self._check(x)])

    def trace_rel(self, g: int, x: int) -> int:
        """Relative trace onto GF(p^g): sum of x^(p^(g*i)), i < n/g."""
        if g < 1 or self.n % g != 0:
            raise NonDivisorSubfieldDegree(f"g = {g} does not divide n = {self.n}")
        x = self._check(x)
        acc, cur = 0, x
        for _ in range(self.n // g):
            acc = self.add(acc, cur)
            cur = self.pow(cur, self.p ** g)
        return acc

    def is_square(self, x: int) -> bool:
        x = self._check(x)
        if self.p == 2 or x == 0:
            return True
        return int(self._log[x]) % 2 == 0

    def elements(self) -> range:
        """All q element ranks in increasing order."""
        return range(self.q)

    # -- vectorized operations (arrays of ranks) ------------------------------

    def add_arrays(self, xs, ys):
        if self.p == 2:
            return np.bitwise_xor(xs, ys)
        if self._split is None:
            return np.add(xs, ys) % self.p
        m = self._split
        hx, lx = np.divmod(xs, m)
        hy, ly = np.divmod(ys, m)
        # flat indices into the tables: one gather each
        return (np.take(self._hi, hx * (self.q // m) + hy)
                + np.take(self._lo, lx * m + ly))

    def neg_array(self, xs):
        return self._neg[xs]

    def add_rows(self, a_list):
        """Row i is x + a_list[i] over all ranks x, in rank order."""
        a = np.asarray(a_list, dtype=np.intp)
        if self.p == 2:
            return a[:, None] ^ np.arange(self.q)[None, :]
        if self._split is None:
            return (a[:, None] + np.arange(self.q)[None, :]) % self.p
        # x = h*m + l runs over h (rows of HI) and then l (rows of LO)
        ha, la = np.divmod(a, self._split)
        return (self._hi[ha][:, :, None]
                + self._lo[la][:, None, :]).reshape(len(a), self.q)

    def scale_array(self, c: int, xs):
        """c * xs elementwise for a constant c."""
        c = self._check(c)
        xs = np.asarray(xs)
        if c == 0:
            return np.zeros_like(xs)
        if c == 1:
            return xs.copy()
        out = np.zeros_like(xs)
        nz = xs != 0
        out[nz] = self._exp[self._log[c] + self._log[xs[nz]]]
        return out

    def mul_arrays(self, xs, ys):
        xs, ys = np.broadcast_arrays(np.asarray(xs), np.asarray(ys))
        out = np.zeros(xs.shape, dtype=np.int32)
        nz = (xs != 0) & (ys != 0)
        out[nz] = self._exp[self._log[xs[nz]] + self._log[ys[nz]]]
        return out

    def pow_all(self, e: int):
        """Vector of x^e over all ranks x (0^e = 0 for e >= 1)."""
        e = int(e)
        if e < 0:
            raise DivisionByZero("negative exponent over the whole field hits 0")
        q = self.q
        if e == 0:
            return np.ones(q, dtype=np.int32)
        out = np.zeros(q, dtype=np.int32)
        idx = np.arange(1, q)
        out[idx] = self._exp[(self._log[idx].astype(np.int64) * (e % (q - 1))) % (q - 1)]
        return out

    def trace_all(self):
        """Vector of absolute traces over all ranks."""
        return self._trace

    # -- identity / serialization ---------------------------------------------

    def to_json_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_json_dict(cls, blob: dict) -> "FieldSpec":
        return build_field(int(blob["p"]), int(blob["n"]),
                           [int(c) for c in blob["modulus"]])

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n}, modulus={list(self.modulus)})"


@functools.lru_cache(maxsize=32)
def _build_cached(p, n, modulus):
    return FieldSpec(p, n, None if modulus is None else list(modulus))


def build_field(p: int, n: int, modulus=None) -> FieldSpec:
    """Validated field model; omit the modulus to get the canonical one.

    The default modulus is the lexicographically smallest primitive
    polynomial (coefficient vectors ordered as base-p integers, constant
    term least significant), so repeated builds agree across runs.
    The 32 most recently used fields are cached; treat the returned
    FieldSpec as read-only.  Raises SizeGuardExceeded for q above
    LOG_TABLE_BOUND.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeCharacteristic(f"p = {p} is not prime")
    key = None if modulus is None else tuple(int(c) for c in modulus)
    return _build_cached(p, n, key)
