from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdiffkit import (AConvention, build_field, c_derivative,
                      cross_solution_check, ddt_c, dual_convention_max,
                      from_monomial, from_polynomial, inverse_table, raw_table,
                      spectrum, uniformity)
from cdiffkit import cdiff
from cdiffkit.errors import DegenerateCs, SizeGuardExceeded, WitnessMismatch
from cdiffkit.functions import table_from_json_dict, table_to_json_dict
from cdiffkit.theorems import deca_trinomial

from oracles import brute_uniformity, ddt_counts, eval_poly, slow_field_like

INC = AConvention.INCLUDE_A_ZERO
NZ = AConvention.NONZERO_ONLY


def test_c_derivative_c1_a0_zero(gf9):
    F = from_monomial(gf9, 2)
    d = c_derivative(F, 1, 0)
    assert set(d.values) == {0}


def test_c_derivative_c0_shift(gf8):
    F = from_monomial(gf8, 3)
    d = c_derivative(F, 0, 5)
    assert all(d[x] == F[gf8.add(x, 5)] for x in range(8))


def test_c_derivative_square_polynomial_identity(gf9):
    # for F = x^2: F(x+1) - cF(x) = (1-c)x^2 + 2x + 1
    F = from_monomial(gf9, 2)
    oracle = slow_field_like(gf9)
    for c in range(9):
        if c == 1:
            continue
        d = c_derivative(F, c, 1)
        coeffs = {2: gf9.sub(1, c), 1: 2, 0: 1}
        for x in range(9):
            assert d[x] == eval_poly(oracle, coeffs, x)


def test_ddt_row_sums(gf8):
    F = from_monomial(gf8, 3)
    for c in (0, 1, 3, 7):
        table = ddt_c(F, c)
        assert (table.sum(axis=1) == 8).all()


def test_ddt_matches_oracle(gf9):
    F = from_polynomial(gf9, {2: 1, 1: 3})
    oracle = slow_field_like(gf9)
    for c in range(9):
        table = ddt_c(F, c)
        counts = ddt_counts(oracle, [F[x] for x in range(9)], c)
        for a in range(9):
            for b in range(9):
                assert table[a, b] == counts.get((a, b), 0)


def test_ddt_pn_square_gf3():
    gf3 = build_field(3, 1)
    F = from_monomial(gf3, 2)
    table = ddt_c(F, 1)
    for a in (1, 2):
        assert set(table[a]) <= {0, 1}
        assert table[a].sum() == 3
    assert table[0, 0] == 3 and table[0, 1] == 0 and table[0, 2] == 0


def test_ddt_square_apcn_gf9(gf9):
    F = from_monomial(gf9, 2)
    table = ddt_c(F, 2)
    assert table[1:].max() == 2 and table.max() == 2


def test_ddt_dense_guard():
    spec = build_field(2, 13)   # q = 8192 > 4096
    F = from_monomial(spec, 3)
    with pytest.raises(SizeGuardExceeded):
        ddt_c(F, 1)


def test_uniformity_gold_gf8_witness(gf8):
    F = from_monomial(gf8, 3)
    res = uniformity(F, 7, NZ)
    assert res.value == 3
    assert (res.witness_a, res.witness_b) == (1, 1)
    assert res.solutions == (0, 5, 6)
    # witness solutions satisfy the difference equation
    for x in res.solutions:
        assert gf8.sub(F[gf8.add(x, 1)], gf8.mul(7, F[x])) == 1
    assert res.classification == "higher"


def test_uniformity_affine_pcn(gf9):
    F = from_polynomial(gf9, {1: 7, 0: 2})
    for c in range(9):
        if c == 1:
            continue
        assert uniformity(F, c, INC).value == 1


def test_uniformity_inverse_c0(gf16):
    assert uniformity(inverse_table(gf16), 0, INC).value == 1


@pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 2), (2, 4, 5), (3, 2, 7)])
def test_uniformity_matches_oracle(p, n, d):
    spec = build_field(p, n)
    F = from_monomial(spec, d)
    oracle = slow_field_like(spec)
    vals = [F[x] for x in range(spec.q)]
    for c in range(spec.q):
        assert (uniformity(F, c, INC).value
                == brute_uniformity(oracle, vals, c, include_a0=(c != 1)))
        assert (uniformity(F, c, NZ).value
                == brute_uniformity(oracle, vals, c, include_a0=False))


def test_classical_c1_checks():
    # x^2 is PN over odd characteristic; x^3 is APN over GF(2^n), n odd
    for (p, n) in [(3, 2), (3, 3), (5, 2), (7, 1)]:
        F = from_monomial(build_field(p, n), 2)
        assert uniformity(F, 1, INC).value == 1
    for n in (3, 5):
        F = from_monomial(build_field(2, n), 3)
        assert uniformity(F, 1, INC).value == 2


def test_linear_monomial_trivially_pcn():
    for (p, n, k) in [(2, 4, 1), (3, 3, 2)]:
        spec = build_field(p, n)
        F = from_polynomial(spec, {p ** k: 3, 0: 5})
        for c in range(spec.q):
            if c == 1:
                continue
            assert uniformity(F, c, INC).value == 1


def test_monomial_ddt_row_scaling(gf16):
    # for F = x^d and a != 0, row a is row 1 reindexed by b -> b / a^d
    d = 5
    F = from_monomial(gf16, d)
    for c in (0, 1, 7):
        table = ddt_c(F, c)
        for a in range(1, 16):
            ad = gf16.pow(a, d)
            for b in range(16):
                assert table[a, b] == table[1, gf16.mul(b, gf16.inv(ad))]


def test_pcn_iff_derivative_bijection(gf9):
    for d in (1, 2, 3, 5):
        F = from_monomial(gf9, d)
        for c in range(9):
            res = uniformity(F, c, INC)
            admissible = [a for a in range(9) if a != 0 or c != 1]
            all_bij = all(
                len(set(c_derivative(F, c, a).values)) == 9 for a in admissible)
            assert (res.value == 1) == all_bij


def test_spectrum_gold_kasami_gf16(gf16):
    rep5 = spectrum(from_monomial(gf16, 5), "nonzero", NZ)
    assert rep5.overall_max == 5
    rep13 = spectrum(from_monomial(gf16, 13), "nonzero", NZ)
    assert rep13.overall_max == 4   # brute-force fact; published tables say 5
    assert [r.c for r in rep5.results] == list(range(1, 16))


def test_spectrum_deca_trinomial_gf27(gf27):
    F = from_polynomial(gf27, {10: 1, 6: -1, 2: -1})
    rep = spectrum(F, "exclude_0_1", INC)
    assert rep.overall_max == 5     # brute-force fact; published tables say 4
    assert all(r.c not in (0, 1) for r in rep.results)


def test_spectrum_explicit_list_and_order(gf9):
    F = from_monomial(gf9, 2)
    rep = spectrum(F, [5, 2, 8], INC)
    assert [r.c for r in rep.results] == [2, 5, 8]
    assert rep.overall_max == 2


def test_spectrum_thread_determinism(gf27):
    F = from_polynomial(gf27, {10: 1, 6: -1, 2: -1})
    a = spectrum(F, "exclude_0_1", INC, threads=1)
    b = spectrum(F, "exclude_0_1", INC, threads=2)
    c = spectrum(F, "exclude_0_1", INC, threads=3)
    assert a.to_json_dict() == b.to_json_dict() == c.to_json_dict()
    assert a.to_csv() == b.to_csv()


def test_dual_convention_single_pass(gf27):
    F = from_polynomial(gf27, {10: 1, 6: -1, 2: -1})
    best = dual_convention_max(F, "exclude_0_1")
    assert best["include-zero"][0] == 5
    assert best["nonzero"][0] == 5
    c, a, b = best["nonzero"][1]
    d = c_derivative(F, c, a)
    assert sum(1 for x in range(27) if d[x] == b) == 5


def test_cross_solution_check_identities(gf9):
    F = from_monomial(gf9, 2)
    # b1 = b2: membership iff F(x0) = 0
    rows = cross_solution_check(F, 1, 4, 4, 2, 5)
    for x0, pred, act in rows:
        assert pred == (F[x0] == 0)
        assert pred == act
    with pytest.raises(DegenerateCs):
        cross_solution_check(F, 1, 0, 0, 2, 2)
    with pytest.raises(DegenerateCs):
        cross_solution_check(F, 1, 0, 0, 0, 2)


def test_cross_solution_check_exhaustive_gf9(gf9):
    F = from_monomial(gf9, 2)
    for a in range(9):
        for c1 in range(1, 9):
            for c2 in range(1, 9):
                if c1 == c2:
                    continue
                for b1 in range(0, 9, 2):
                    for b2 in range(9):
                        for (x0, pred, act) in cross_solution_check(
                                F, a, b1, b2, c1, c2):
                            assert pred == act


def test_cross_solution_empty_vacuous(gf8):
    F = from_monomial(gf8, 3)
    table = ddt_c(F, 3)
    empties = np.argwhere(table == 0)
    a, b1 = int(empties[0][0]), int(empties[0][1])
    assert cross_solution_check(F, a, b1, 0, 3, 5) == []


def test_spectrum_report_serialization(gf9):
    F = from_monomial(gf9, 2)
    rep = spectrum(F, "nonzero", INC)
    blob = rep.to_json_dict()
    assert blob["a_convention"] == "include-zero"
    assert blob["overall_max"] == rep.overall_max
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "c_rank,uniformity,witness_a,witness_b,classification"
    assert len(lines) == 1 + len(rep.results)
    # identical numbers in both serializations
    for row, r in zip(lines[1:], blob["results"]):
        parts = row.split(",")
        assert int(parts[0]) == r["c_rank"]
        assert int(parts[1]) == r["uniformity"]
        assert int(parts[2]) == r["witness_a"]
        assert int(parts[3]) == r["witness_b"]


def test_raw_function_uniformity_oracle():
    spec = build_field(2, 3)
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 8, 8)
    F = raw_table(spec, vals)
    oracle = slow_field_like(spec)
    for c in range(8):
        for conv, inc in ((INC, c != 1), (NZ, False)):
            assert (uniformity(F, c, conv).value
                    == brute_uniformity(oracle, list(map(int, vals)), c, inc))


def test_witness_check_rejects_inflated_value(gf8):
    F = from_monomial(gf8, 3)
    res = uniformity(F, 7, NZ)
    args = (gf8, F.values, 7)
    assert cdiff._witness_solutions(*args, res.value, 1, 1) == res.solutions
    with pytest.raises(WitnessMismatch):
        cdiff._witness_solutions(*args, res.value + 1, 1, 1)
    with pytest.raises(WitnessMismatch):   # row 1 first attains its maximum at b = 1
        cdiff._witness_solutions(*args, res.value, 1, 2)


# -- the power-map dispatch against the generic all-rows scan ---------------

DISPATCH_FIELDS = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
                   + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)])
FUNCTION_KINDS = ("monomial", "inverse", "raw_monomial", "perturbed")


@st.composite
def dispatch_cases(draw):
    """(F, power_map): a field with q <= 343 and one of four function kinds."""
    p, n = draw(st.sampled_from(DISPATCH_FIELDS))
    spec = build_field(p, n)
    q = spec.q
    kind = draw(st.sampled_from(FUNCTION_KINDS))
    if kind == "inverse":
        return inverse_table(spec), q > 2
    A = draw(st.integers(1, q - 1))
    d = draw(st.integers(1, 3 * q))
    values = spec.scale_array(A, spec.pow_all(d))
    if kind == "monomial":
        F = from_polynomial(spec, {(d - 1) % (q - 1) + 1: A})
        assert np.array_equal(F.values, values)
        return F, q > 2
    if kind == "raw_monomial":
        # the values alone select the fast path, whatever the origin says
        return raw_table(spec, values), q > 2
    # a loaded table may claim a monomial origin over arbitrary values; with
    # F(1) and F(g) kept, A*x^d is the only power map they allow, so a
    # change at any other x leaves no power map
    x = draw(st.sampled_from([x for x in range(q) if x not in (1, spec.primitive_rank)]))
    values = values.copy()
    values[x] = (values[x] + draw(st.integers(1, q - 1))) % q
    blob = table_to_json_dict(raw_table(spec, values))
    blob["origin"] = {"kind": "monomial", "d": d}
    return table_from_json_dict(blob), False


def _generic_shift_rows(spec, values):
    return spec.q


def _perturbed_monomial(spec, d, x):
    blob = table_to_json_dict(from_monomial(spec, d))
    blob["values"][x] = (blob["values"][x] + 1) % spec.q
    return table_from_json_dict(blob), False


# the edge fields q = 2, 3 and the largest field, GF(7^3), on every run
DISPATCH_EXAMPLES = [
    (from_monomial(build_field(2, 1), 1), False),
    (inverse_table(build_field(2, 1)), False),
    (from_monomial(build_field(3, 1), 2), True),
    (inverse_table(build_field(3, 1)), True),
    (from_polynomial(build_field(7, 3), {5: 3}), True),
    (inverse_table(build_field(7, 3)), True),
    (_perturbed_monomial(build_field(7, 3), 2, 0)),
    (inverse_table(build_field(2, 8)), True),
]


def _with_examples(test):
    for case in DISPATCH_EXAMPLES:
        test = example(case)(test)
    return test


def _with_examples_both_conventions(test):
    # the perturbed table runs the generic scan on every path; at q = 343
    # the scan test above covers it
    for case in DISPATCH_EXAMPLES[:6]:
        for conv in (INC, NZ):
            test = example(case, conv)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dispatch_cases())
@_with_examples
def test_dispatch_scan_matches_generic(case):
    F, power_map = case
    spec, q = F.spec, F.spec.q
    rows = cdiff._shift_rows(spec, F.values)
    assert rows == (2 if power_map else q)
    for c in range(q):
        assert (cdiff._scan_c(spec, F.values, c, rows)
                == cdiff._scan_c(spec, F.values, c, q))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dispatch_cases(), st.sampled_from([INC, NZ]))
@_with_examples_both_conventions
def test_dispatch_payloads_match_generic(case, conv):
    F, _ = case
    spec = F.spec
    fast = spectrum(F, "all", conv, threads=1)
    fast_dual = dual_convention_max(F, "all")
    assert spectrum(F, "all", conv, threads=2).to_json_dict() == fast.to_json_dict()
    assert dual_convention_max(F, "all", threads=2) == fast_dual
    with mock.patch.object(cdiff, "_shift_rows", _generic_shift_rows):
        generic = spectrum(F, "all", conv, threads=1)
        generic_dual = dual_convention_max(F, "all")
    assert fast.to_json_dict() == generic.to_json_dict()
    assert fast.results == generic.results
    assert fast_dual == generic_dual
    if spec.q <= 27:
        oracle = slow_field_like(spec)
        vals = [int(v) for v in F.values]
        for r in fast.results:
            include = conv.admits_zero_shift(r.c)
            assert r.value == brute_uniformity(oracle, vals, r.c, include)


# -- the Frobenius-orbit dispatch over c against the scan of every c ---------

ORBIT_FIELDS = ([(2, n) for n in range(2, 8)] + [(3, n) for n in range(2, 6)]
                + [(5, 2), (5, 3), (7, 2)])
ORBIT_KINDS = ("fp_polynomial", "deca", "inverse", "scaled_monomial", "perturbed")


def _fp_polynomial(spec, draw):
    """A polynomial with F_p coefficients (ranks below p); it commutes
    with Frobenius."""
    q, p = spec.q, spec.p
    terms = draw(st.dictionaries(st.integers(0, q - 1), st.integers(1, p - 1),
                                 min_size=1, max_size=4))
    return from_polynomial(spec, terms)


def _orbit_function(draw):
    """(F, invariant): F over a field with n > 1 and q <= 243."""
    kind = draw(st.sampled_from(ORBIT_KINDS))
    if kind == "deca":
        spec = build_field(3, draw(st.integers(2, 5)))
        return deca_trinomial(spec, draw(st.sampled_from([1, 2]))), True
    spec = build_field(*draw(st.sampled_from(ORBIT_FIELDS)))
    q, p = spec.q, spec.p
    if kind == "inverse":
        return inverse_table(spec), True
    if kind == "scaled_monomial":
        # A^p != A, so F(x^p) = A x^(dp) differs from F(x)^p = A^p x^(dp)
        A = draw(st.integers(p, q - 1))
        return from_polynomial(spec, {draw(st.integers(1, q - 1)): A}), False
    F = _fp_polynomial(spec, draw)
    if kind == "fp_polynomial":
        return F, True
    # a new value at some x outside F_p breaks F(x^p) = F(x)^p there: x^p
    # differs from x, so F(x^p) keeps its value while F(x)^p changes
    x = draw(st.integers(p, q - 1))
    values = F.values.copy()
    values[x] = (values[x] + draw(st.integers(1, q - 1))) % q
    return raw_table(spec, values), False


@st.composite
def orbit_cases(draw):
    """(F, invariant, c_set); c_set is 'all', 'exclude_0_1' or an explicit
    list, rarely closed under Frobenius."""
    F, invariant = _orbit_function(draw)
    c_set = draw(st.sampled_from(["all", "exclude_0_1", "list"]))
    if c_set == "list":
        spec = F.spec
        c_set = draw(st.lists(st.integers(0, spec.q - 1), min_size=2,
                              max_size=12, unique=True))
        if draw(st.booleans()):   # part of an orbit, in any order
            c_set = list({*c_set, spec.frobenius(c_set[0])})
    return F, invariant, c_set


def _scan_every_c(spec, values, cs):
    return {c: (c, 0) for c in cs}


def _orbit(spec, c):
    orbit = [c]
    while spec.frobenius(orbit[-1]) != c:
        orbit.append(spec.frobenius(orbit[-1]))
    return orbit


def _check_orbit_dispatch(F, invariant, c_set, conv):
    spec = F.spec
    cs = cdiff.admissible_c(spec, c_set)
    rep = cdiff._orbit_representatives(spec, F.values, cs)
    shared = any(len(set(_orbit(spec, c)) & set(cs)) > 1 for c in cs)
    assert (rep != {c: (c, 0) for c in cs}) == (invariant and shared)
    fast = spectrum(F, c_set, conv, threads=1)
    fast_dual = dual_convention_max(F, c_set)
    assert spectrum(F, c_set, conv, threads=2).to_json_dict() == fast.to_json_dict()
    assert dual_convention_max(F, c_set, threads=2) == fast_dual
    with mock.patch.object(cdiff, "_orbit_representatives", _scan_every_c):
        every = spectrum(F, c_set, conv, threads=1)
        every_dual = dual_convention_max(F, c_set)
    assert fast.to_json_dict() == every.to_json_dict()
    assert fast.results == every.results
    assert fast_dual == every_dual
    if spec.q <= 27:
        oracle = slow_field_like(spec)
        vals = [int(v) for v in F.values]
        for r in fast.results:
            include = conv.admits_zero_shift(r.c)
            assert r.value == brute_uniformity(oracle, vals, r.c, include)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(orbit_cases(), st.sampled_from([INC, NZ]))
@example((deca_trinomial(build_field(3, 5), 1), True, "exclude_0_1"), INC)
@example((deca_trinomial(build_field(3, 5), 2), True, "exclude_0_1"), NZ)
@example((inverse_table(build_field(2, 8)), True, "all"), NZ)
def test_orbit_dispatch_matches_every_c(case, conv):
    _check_orbit_dispatch(*case, conv)


def test_orbit_dispatch_needs_frobenius_and_two_cs():
    no_log_tables = build_field(3, 3, log_table_bound=8)
    assert no_log_tables._frob is None
    # GF(2) and a prime field (n = 1), a field without a Frobenius table,
    # and a single c all scan every c
    for spec, cs in [(build_field(2, 1), [0, 1]), (build_field(7, 1), list(range(7))),
                     (no_log_tables, list(range(27))), (build_field(3, 3), [2])]:
        F = from_monomial(spec, 2)
        assert (cdiff._orbit_representatives(spec, F.values, cs)
                == {c: (c, 0) for c in cs})
        for conv in (INC, NZ):
            _check_orbit_dispatch(F, False, cs, conv)


def test_orbit_representative_is_smallest_requested_member(gf27):
    F = deca_trinomial(gf27, 1)
    assert sorted(_orbit(gf27, 9)) == [9, 13, 16]
    assert (cdiff._orbit_representatives(gf27, F.values, [2, 13, 16])
            == {2: (2, 0), 13: (13, 0), 16: (13, 1)})


def test_orbit_image_is_recounted(gf27):
    F = deca_trinomial(gf27, 1)
    state = cdiff._kernel_state(F, INC)
    _, top = cdiff._uniformity_at(state, (13, True))
    # 16 = 13^3; a single c is scanned directly
    assert cdiff._orbit_image(state, 16, 1, top) == spectrum(F, [16], INC).results[0]
    with pytest.raises(WitnessMismatch):
        cdiff._orbit_image(state, 16, 1, (top[0] + 1,) + top[1:])


def test_orbit_dispatch_scans_one_c_per_orbit():
    # GF(3^5): c = 2 is fixed and the other 240 values of c != 0, 1 form
    # 48 orbits of 5; a changed value at x = 5 leaves F not invariant
    spec = build_field(3, 5)
    F = deca_trinomial(spec, 1)
    values = F.values.copy()
    values[5] = (values[5] + 1) % spec.q
    for G, scans in ((F, 49), (raw_table(spec, values), 241)):
        for call in (lambda: spectrum(G, "exclude_0_1", INC),
                     lambda: dual_convention_max(G, "exclude_0_1")):
            with mock.patch.object(cdiff, "_row_maxima", wraps=cdiff._row_maxima) as scan:
                call()
            assert scan.call_count == scans
