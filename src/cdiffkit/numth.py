"""Arithmetic building blocks: the gcd closed form, the affine-Frobenius
trinomial root count, quadratic solvers, and Chebyshev permutation tests."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormulaMismatch, NonPrimeCharacteristic, SubfieldEdgeCase
from .field import FieldSpec, is_prime


def gcd_power_formula(p: int, k: int, n: int) -> int:
    """gcd(p^k + 1, p^n - 1) by the closed-form case split, cross-checked
    against the direct integer gcd.

    p = 2:  (2^gcd(2k,n) - 1) / (2^gcd(k,n) - 1)
    p > 2:  2 when n/gcd(n,k) is odd, else p^gcd(k,n) + 1.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeCharacteristic(f"p = {p} is not prime")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    g = math.gcd(k, n)
    if p == 2:
        value = (2 ** math.gcd(2 * k, n) - 1) // (2 ** g - 1)
    elif (n // g) % 2 == 1:
        value = 2
    else:
        value = p ** g + 1
    direct = math.gcd(p ** k + 1, p ** n - 1)
    if value != direct:
        raise FormulaMismatch(
            f"closed form {value} != direct gcd {direct} for (p,k,n)=({p},{k},{n})")
    return value


@dataclass(frozen=True)
class TrinomialOutcome:
    """Root structure of z^(p^k) - a z - b over GF(p^n)."""

    p: int
    k: int
    n: int
    a: int
    b: int
    g: int
    m: int
    count: int
    roots: tuple
    alpha: int | None   # alpha_(m-1); None when a = 0 (degenerate linear map)
    beta: int | None    # beta_(m-1)


def trinomial_roots(spec: FieldSpec, k: int, a: int, b: int) -> TrinomialOutcome:
    """Classify and list the roots of f(z) = z^(p^k) - a z - b in GF(p^n).

    The count is 0, 1 or p^g (g = gcd(n, k)), decided by the pair
    (alpha_(m-1), beta_(m-1)) from the recursion

        alpha_r = alpha_(r-1) * a^(p^(k r)),
        beta_r  = a^(p^(k r)) * beta_(r-1) + b^(p^(k r)),   m = n / g:

    no roots iff alpha = 1 and beta != 0; a unique root beta / (1 - alpha)
    iff alpha != 1; p^g roots iff alpha = 1 and beta = 0, produced as
    x0 + delta * tau over delta in the subfield GF(p^g), where tau is a
    (p^k - 1)-th root of a and x0 comes from the explicit trace formula.

    For a = 0 the map degenerates to the bijection z -> z^(p^k), which has
    the single root b^(p^(n-k)).  k is reduced mod n; k = 0 (mod n) makes
    z^(p^k) = z and the recursion meaningless, so it is rejected.
    """
    p, n, q = spec.p, spec.n, spec.q
    if k < 1:
        raise SubfieldEdgeCase("k must be >= 1")
    k = k % n
    if k == 0:
        raise SubfieldEdgeCase(
            "k = n makes z^(p^k) the identity map; the equation is linear "
            "and outside this classification (m = 1)")
    g = math.gcd(n, k)
    m = n // g

    if a == 0:
        root = spec.pow(b, p ** (n - k))
        _assert_root(spec, k, a, b, root)
        return TrinomialOutcome(p, k, n, a, b, g, m, 1, (root,), None, None)

    # alpha_r, beta_r recursion, r = 1 .. m-1
    alpha, beta = a, b
    a_pow, b_pow = a, b
    for _ in range(1, m):
        a_pow = spec.pow(a_pow, p ** k)
        b_pow = spec.pow(b_pow, p ** k)
        beta = spec.add(spec.mul(a_pow, beta), b_pow)
        alpha = spec.mul(alpha, a_pow)

    if alpha != 1:
        root = spec.mul(beta, spec.inv(spec.sub(1, alpha)))
        _assert_root(spec, k, a, b, root)
        return TrinomialOutcome(p, k, n, a, b, g, m, 1, (root,), alpha, beta)
    if beta != 0:
        return TrinomialOutcome(p, k, n, a, b, g, m, 0, (), alpha, beta)

    # p^g roots: explicit base root from the relative-trace formula
    e = _nonzero_rel_trace_element(spec, g)
    inv_tr = spec.inv(spec.trace_rel(g, e))
    pk = p ** k
    x0 = 0
    e_partial = 0       # sum_{j<=i} e^(p^(k j))
    e_pow = e
    b_pow = b
    for i in range(m):
        e_partial = spec.add(e_partial, e_pow)
        t_i = sum(pk ** (j + 1) for j in range(i, m - 1))
        term = spec.mul(e_partial, spec.mul(spec.pow(a, t_i), b_pow))
        x0 = spec.add(x0, term)
        e_pow = spec.pow(e_pow, pk)
        b_pow = spec.pow(b_pow, pk)
    x0 = spec.mul(inv_tr, x0)
    _assert_root(spec, k, a, b, x0)

    tau = _smallest_power_root(spec, pk - 1, a)
    subfield = _subfield_ranks(spec, g)
    roots = tuple(sorted(
        int(r) for r in spec.add_arrays(
            np.full(len(subfield), x0, dtype=np.int32),
            spec.scale_array(tau, subfield))))
    if len(roots) != p ** g:
        raise AssertionError(f"built {len(roots)} roots, expected p^g = {p ** g}")
    return TrinomialOutcome(p, k, n, a, b, g, m, p ** g, roots, alpha, beta)


# Bounded: each key holds a FieldSpec, and with it the field's tables.
_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _subfield_ranks(spec, g):
    """Ranks of the subfield GF(p^g): fixed points of frobenius^g, ascending.
    The array is read-only, since every caller shares it."""
    fixed = spec.pow_all(spec.p ** g) == np.arange(spec.q)
    ranks = np.nonzero(fixed)[0].astype(np.int32)
    ranks.setflags(write=False)
    return ranks


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _smallest_power_root(spec, e, a):
    """Smallest rank t with t^e = a (the caller guarantees existence)."""
    hits = np.nonzero(spec.pow_all(e) == a)[0]
    if not len(hits):
        raise AssertionError(f"no {e}-th root of {a}")
    return int(hits[0])


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _nonzero_rel_trace_element(spec, g):
    return next(x for x in range(1, spec.q) if spec.trace_rel(g, x) != 0)


def _assert_root(spec, k, a, b, z):
    lhs = spec.sub(spec.sub(spec.pow(z, spec.p ** k), spec.mul(a, z)), b)
    if lhs != 0:
        raise AssertionError(
            f"root formula produced a non-root (k={k}, a={a}, b={b}, z={z})")


def solve_quadratic(spec: FieldSpec, A: int, B: int) -> tuple:
    """All roots of x^2 + A x + B = 0 in GF(p^n), sorted by rank.

    Characteristic 2 with A != 0: two roots iff Tr(B / A^2) = 0, else none.
    A = 0: the unique square root of B.  Odd characteristic: by the
    discriminant A^2 - 4B (two roots for a nonzero square, one for zero,
    none for a non-square).  Returned roots are verified by substitution.
    """
    p, q = spec.p, spec.q
    if p == 2:
        if A == 0:
            roots = (spec.pow(B, q // 2),)   # B^(2^(n-1)) squares to B
        else:
            t = spec.mul(B, spec.inv(spec.mul(A, A)))
            if spec.trace_abs(t) != 0:
                roots = ()
            else:
                y0 = _artin_schreier_root(spec, t)
                r = spec.mul(A, y0)
                roots = tuple(sorted((r, spec.add(r, A))))
    else:
        disc = spec.sub(spec.mul(A, A), spec.mul(4 % p, B))
        half = spec.inv(2)
        if disc == 0:
            roots = (spec.mul(spec.neg(A), half),)
        elif not spec.is_square(disc):
            roots = ()
        else:
            s = _sqrt(spec, disc)
            roots = tuple(sorted((
                spec.mul(spec.add(spec.neg(A), s), half),
                spec.mul(spec.sub(spec.neg(A), s), half),
            )))
    for r in roots:
        val = spec.add(spec.add(spec.mul(r, r), spec.mul(A, r)), B)
        if val != 0:
            raise AssertionError(f"quadratic root {r} fails substitution")
    return roots


def _artin_schreier_root(spec: FieldSpec, t: int) -> int:
    """Some y with y^2 + y = t over GF(2^n), given Tr(t) = 0."""
    if spec.n % 2 == 1:
        # half trace: sum of t^(4^i), i = 0 .. (n-1)/2
        y = 0
        cur = t
        for _ in range((spec.n - 1) // 2 + 1):
            y = spec.add(y, cur)
            cur = spec.pow(cur, 4)
        for cand in (y, spec.add(y, 1)):
            if spec.add(spec.mul(cand, cand), cand) == t:
                return cand
    for y in range(spec.q):
        if spec.add(spec.mul(y, y), y) == t:
            return y
    raise AssertionError("no Artin-Schreier root despite zero trace")


def _sqrt(spec: FieldSpec, x: int) -> int:
    """A square root of a known square, odd characteristic."""
    if x == 0:
        return 0
    lg = spec.log(x)
    if lg % 2:
        raise AssertionError(f"{x} has odd logarithm {lg}: not a square")
    return int(spec.mul_gen_power(1, lg // 2))


def chebyshev_eval(spec: FieldSpec, ell: int, y: int) -> int:
    """T_ell(y) by the three-term recurrence T_0 = 2, T_1 = y,
    T_(j+1) = y T_j - T_(j-1); normalized so T_ell(z + 1/z) = z^ell + z^-ell."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        return 2 % spec.p
    prev, cur = 2 % spec.p, y
    for _ in range(ell - 1):
        prev, cur = cur, spec.sub(spec.mul(y, cur), prev)
    return cur


def chebyshev_is_permutation(p: int, n: int, ell: int) -> bool:
    """T_ell permutes GF(p^n) iff gcd(ell, p^(2n) - 1) = 1."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return math.gcd(ell, p ** (2 * n) - 1) == 1
