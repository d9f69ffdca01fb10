import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cdiffkit import numth
from cdiffkit import (build_field, chebyshev_eval, chebyshev_is_permutation,
                      gcd_power_formula, solve_quadratic, trinomial_roots)
from cdiffkit.errors import SubfieldEdgeCase
from cdiffkit.field import is_prime

from oracles import slow_field_like


def test_gcd_examples():
    assert gcd_power_formula(2, 2, 4) == 5
    assert gcd_power_formula(3, 1, 3) == 2
    assert gcd_power_formula(3, 1, 4) == 4


def test_gcd_full_sweep():
    for p in (2, 3, 5, 7):
        for k in range(1, 13):
            for n in range(1, 13):
                value = gcd_power_formula(p, k, n)
                assert value == math.gcd(p ** k + 1, p ** n - 1)


def test_gcd_odd_n_corollary():
    for p in (2, 3, 5, 7):
        for n in (1, 3, 5, 7, 9, 11):
            for k in range(1, 13):
                expect = 1 if p == 2 else 2
                assert gcd_power_formula(p, k, n) == expect


def test_trinomial_unique_root_gf27(gf27):
    out = trinomial_roots(gf27, 1, gf27.neg(1), gf27.neg(1))
    assert out.count == 1
    assert out.roots == (1,)        # 1 + 1 + 1 = 0 in characteristic 3
    assert out.alpha != 1


def test_trinomial_subfield_count_gf9(gf9):
    out = trinomial_roots(gf9, 1, gf9.neg(1), gf9.neg(1))
    assert out.count == 3 == 3 ** out.g
    assert out.m == 2


def test_trinomial_prime_subfield_gf8(gf8):
    out = trinomial_roots(gf8, 1, 1, 0)
    assert out.count == 2
    assert out.roots == (0, 1)


def test_trinomial_k_multiple_of_n_rejected(gf8):
    with pytest.raises(SubfieldEdgeCase):
        trinomial_roots(gf8, 3, 1, 1)
    with pytest.raises(SubfieldEdgeCase):
        trinomial_roots(gf8, 6, 1, 1)


def test_trinomial_k_reduced_mod_n(gf8):
    a, b = 3, 5
    assert trinomial_roots(gf8, 4, a, b) == trinomial_roots(gf8, 1, a, b)


def test_trinomial_degenerate_a0(gf9):
    for b in range(9):
        out = trinomial_roots(gf9, 1, 0, b)
        assert out.count == 1
        (root,) = out.roots
        assert gf9.pow(root, 3) == b
        assert out.alpha is None and out.beta is None


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_trinomial_exhaustive_oracle(p, n):
    spec = build_field(p, n)
    q = spec.q
    for k in range(1, n):
        g = math.gcd(n, k)
        pk = p ** k
        zpk = np.array([spec.pow(z, pk) for z in range(q)])
        for a in range(1, q):
            w = spec.add_arrays(zpk, spec.neg_array(spec.scale_array(a, np.arange(q))))
            by_b = {}
            for z in range(q):
                by_b.setdefault(int(w[z]), []).append(z)
            for b in range(q):
                expect = tuple(sorted(by_b.get(b, [])))
                out = trinomial_roots(spec, k, a, b)
                assert out.count == len(expect)
                assert out.roots == expect
                assert out.count in (0, 1, p ** g)
                # classification invariant
                if out.count == 0:
                    assert out.alpha == 1 and out.beta != 0
                elif out.count == 1:
                    assert out.alpha != 1
                else:
                    assert out.alpha == 1 and out.beta == 0


def test_quadratic_examples():
    gf4 = build_field(2, 2)
    assert solve_quadratic(gf4, 1, 2) == ()          # Tr(omega) = 1
    gf5 = build_field(5, 1)
    assert solve_quadratic(gf5, 3, 1) == (1,)        # x^2 - 2x + 1
    assert solve_quadratic(gf5, 1, 1) == ()          # disc = -3 = 2, non-square


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (7, 2),
                                 (11, 1), (13, 1)])
def test_quadratic_exhaustive_oracle(p, n):
    spec = build_field(p, n)
    oracle = slow_field_like(spec)
    q = spec.q
    for A in range(q):
        for B in range(q):
            brute = tuple(sorted(
                x for x in range(q)
                if oracle.add(oracle.add(oracle.mul(x, x), oracle.mul(A, x)), B) == 0))
            assert solve_quadratic(spec, A, B) == brute


def test_chebyshev_eval_examples():
    gf5 = build_field(5, 1)
    assert chebyshev_eval(gf5, 0, 3) == 2
    assert chebyshev_eval(gf5, 1, 3) == 3
    assert chebyshev_eval(gf5, 2, 0) == 3            # T_2(x) = x^2 - 2


def test_chebyshev_permutation_criterion():
    assert chebyshev_is_permutation(3, 3, 5) is True    # gcd(5, 728) = 1
    assert chebyshev_is_permutation(3, 1, 2) is False   # gcd(2, 8) = 2


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (3, 4), (7, 1)])
def test_dickson_identity(p, n):
    # T_ell(z + 1/z) = z^ell + z^-ell over the field itself
    spec = build_field(p, n)
    for z in range(1, spec.q):
        x = spec.add(z, spec.inv(z))
        for ell in (1, 2, 3, 4, 7, 11):
            lhs = chebyshev_eval(spec, ell, x)
            rhs = spec.add(spec.pow(z, ell), spec.pow(spec.inv(z), ell))
            assert lhs == rhs


def test_numth_caches_are_bounded():
    cached = (numth._subfield_ranks, numth._smallest_power_root,
              numth._nonzero_rel_trace_element)
    bound = numth._CACHE_SIZE
    fields = [build_field(p, 1) for p in range(2, 400) if is_prime(p)]
    assert len(fields) > bound
    for spec in fields:
        ranks = numth._subfield_ranks(spec, 1)
        assert ranks.tolist() == list(range(spec.p))
        with pytest.raises(ValueError):
            ranks[0] = 1
        assert spec.pow(numth._smallest_power_root(spec, spec.p - 1, 1), spec.p - 1) == 1
        assert spec.trace_rel(1, numth._nonzero_rel_trace_element(spec, 1)) != 0
    for fn in cached:
        assert fn.cache_info().maxsize == bound
        assert fn.cache_info().currsize <= bound


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check of a result may use one
    for path in sorted(Path(numth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"
