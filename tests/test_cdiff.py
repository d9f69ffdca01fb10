import contextlib
import logging
import math
import shutil
import subprocess
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdiffkit import (AConvention, build_field, c_derivative,
                      cross_solution_check, ddt_c, derivative_walsh_statistic,
                      dual_convention_max,
                      from_monomial, from_polynomial, inverse_table, raw_table,
                      spectrum, uniformity)
from cdiffkit import cdiff, functions
from cdiffkit.errors import DegenerateCs, SizeGuardExceeded, WitnessMismatch
from cdiffkit.functions import table_from_json_dict, table_to_json_dict
from cdiffkit.theorems import deca_trinomial
from cdiffkit.walsh import _count_histogram

from oracles import brute_uniformity, ddt_counts, eval_poly, slow_field_like
from records import trivial_record

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


@pytest.mark.parametrize("pn", [(7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("shift", ["q", "q+1", "-1"])
def test_shift_out_of_range_rejected(pn, shift):
    # a rank outside [0, q) neither wraps mod q nor escapes as an IndexError
    spec = build_field(*pn)
    q = spec.q
    a = {"q": q, "q+1": q + 1, "-1": -1}[shift]
    F = from_monomial(spec, 2)
    for call in (lambda: c_derivative(F, 2, a),
                 lambda: derivative_walsh_statistic(F, 2, a, 1),
                 lambda: cross_solution_check(F, a, 1, 2, 2, 3)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("rank", [2.7, 2.0, "2", True, np.float64(2), None])
def test_non_integer_ranks_rejected(gf9, rank):
    # int() would truncate 2.7, parse "2" and read True as 1
    F = from_monomial(gf9, 2)
    for call in (lambda: cdiff.admissible_c(gf9, [rank]),
                 lambda: spectrum(F, [1, rank], INC),
                 lambda: uniformity(F, rank, INC),
                 lambda: dual_convention_max(F, [rank]),
                 lambda: c_derivative(F, 2, rank)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert cdiff.admissible_c(gf9, [np.int64(2), np.uint8(3), 2]) == [2, 3]


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
    assert (res.witness_a, res.witness_b) == (1, 1)

    def result(value, b):   # a witness table whose a != 0 maximum is in row 1
        table = cdiff.WitnessTable(np.array([7]), np.array([value]), np.array([0]),
                                   np.array([0]), np.array([b]), np.ones((1, gf8.n, 2), int))
        (res,), blocks = cdiff._results(F, [(7, (7, 0, False), NZ)], table)
        assert blocks == 1
        return res

    assert result(res.value, 1) == res
    with pytest.raises(WitnessMismatch):
        result(res.value + 1, 1)
    with pytest.raises(WitnessMismatch):   # row 1 first attains its maximum at b = 1
        result(res.value, 2)


def _require_compiled_scan():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the compiled scan cannot be built")
    assert cdiff._kernel() is not None, "cc is present, but the compiled scan did not load"


def _numpy_scan():
    """Run the numpy body of _count_blocks, as when the compiled kernel is missing."""
    return mock.patch.object(cdiff, "_kernel", return_value=None)


def test_inflated_scan_raises_in_every_entry_point(gf27):
    _require_compiled_scan()
    _check_inflated_scan_raises(gf27)


def test_inflated_numpy_scan_raises_in_every_entry_point(gf27):
    with _numpy_scan():
        _check_inflated_scan_raises(gf27)


def _check_inflated_scan_raises(gf27):
    # 9 is the smallest member of its orbit {9, 13, 16, 20, 22, 25} under
    # Frobenius and c -> 1/c, so it is scanned, and a maximum above q makes
    # it the first c reaching both overall maxima of dual_convention_max
    F = deca_trinomial(gf27, 1)
    row_maxima = cdiff._row_maxima

    def inflated(spec, values, c, rows):
        # row 1 of c = 9, which one pass scans among other c values
        row_max, first_b = row_maxima(spec, values, c, rows)
        at = np.flatnonzero(np.broadcast_to(c, rows.shape) == 9)
        if len(at):
            row_max = row_max.copy()
            row_max[at[1]] += spec.q
        return row_max, first_b

    with mock.patch.object(cdiff, "_row_maxima", inflated):
        for call in (lambda: spectrum(F, "exclude_0_1", INC),
                     lambda: spectrum(F, "exclude_0_1", NZ),
                     lambda: dual_convention_max(F, "exclude_0_1"),
                     lambda: uniformity(F, 9, NZ)):
            with pytest.raises(WitnessMismatch):
                call()


# -- the symmetry dispatch against the scan of every row and every c ---------

@contextlib.contextmanager
def _every_row_and_c(F):
    """The scan of every row and every c: yields F's values under the
    trivial record (see records.trivial_record), with no c orbits."""
    G = trivial_record(F)
    with mock.patch.object(cdiff, "_c_orbits",
                           lambda F, cs: {c: (c, 0, False) for c in cs}):
        yield G


def _stabilizer_rows(spec, values):
    """Row 0 and the smallest rank of each coset of {λ : F(λx) = μ F(x) for
    every x, for some μ != 0}, trying every λ and every μ."""
    q = spec.q
    x = np.arange(q)
    times = spec.mul_arrays(x[:, None], x[None, :])   # times[u, v] = u*v
    scaled = times[1:, values]                        # row μ - 1: μ F(x)
    stab = [lam for lam in range(1, q)
            if (scaled == values[times[lam]]).all(axis=1).any()]
    return [0] + sorted(set(times[1:, stab].min(axis=1).tolist()))


def _orbit(spec, c, frobenius=True):
    """c's orbit under c -> 1/c, and under Frobenius when asked."""
    orbit, todo = {c}, [c]
    while todo:
        y = todo.pop()
        images = [spec.inv(y)] if y else []
        if frobenius:
            images.append(spec.frobenius(y))
        for image in images:
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _check_dispatch(F, invariant, c_set, conv):
    """The dispatch rows are the stabilizer's, each representative is the
    smallest requested member of its orbit (Frobenius only when invariant)
    and maps onto its c, and every payload equals the scan of every row and
    every c, at threads 1 and 2 and, for q <= 27, the brute-force oracle."""
    spec = F.spec
    cs = cdiff.admissible_c(spec, c_set)
    sym = F.symmetry
    rows, coset_min, rep = sym.rows, sym.coset_min, cdiff._c_orbits(F, cs)
    assert rows.tolist() == _stabilizer_rows(spec, F.values)
    assert coset_min[rows].tolist() == rows.tolist()
    for c, (r, k, neg) in rep.items():
        assert r == min(_orbit(spec, c, invariant) & set(cs))
        for _ in range(k):
            r = spec.frobenius(r)
        assert (spec.inv(r) if neg else r) == c
    fast = spectrum(F, c_set, conv, threads=1)
    fast_dual = dual_convention_max(F, c_set)
    assert spectrum(F, c_set, conv, threads=2).to_json_dict() == fast.to_json_dict()
    assert dual_convention_max(F, c_set, threads=2) == fast_dual
    with _every_row_and_c(F) as G:
        every = spectrum(G, c_set, conv, threads=1)
        every_dual = dual_convention_max(G, c_set)
    assert fast.to_json_dict() == every.to_json_dict()
    assert fast.results == every.results
    assert fast_dual == every_dual
    if spec.q <= 27:
        oracle = slow_field_like(spec)
        vals = [int(v) for v in F.values]
        for r in fast.results:
            include = conv.admits_zero_shift(r.c)
            assert r.value == brute_uniformity(oracle, vals, r.c, include)


# -- power maps: the stabilizer is GF(q)^*, so rows 0 and 1 decide ----------

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
    # the perturbed table (x^2 with F(0) = 1, so Λ = {1, -1}) scans half the
    # rows; at q = 343 the scan test above covers it
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
    rows = F.symmetry.rows
    if power_map:
        assert rows.tolist() == [0, 1]
    assert rows.tolist() == _stabilizer_rows(spec, F.values)
    every = trivial_record(F)
    # per c: the a >= 1 maximum, row 0's maximum, the first b of row 0 and
    # of the first row a >= 1 attaining the maximum, and the smallest ±a
    # over those rows, from passes over groups of c values as _sweep makes
    # them; the a >= 0 maximum and its witness follow from these
    size = max(1, cdiff.BLOCK_ELEMENTS // q)
    fast, generic = ([[col.tolist() for col in (*table[:5], table.wit[:, 0])]
                      for table in (cdiff._scan(G, list(range(start, min(q, start + size))))
                                    for start in range(0, q, size))]
                     for G in (F, every))
    assert fast == generic


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
    with _every_row_and_c(F) as G:
        generic = spectrum(G, "all", conv, threads=1)
        generic_dual = dual_convention_max(G, "all")
    assert fast.to_json_dict() == generic.to_json_dict()
    assert fast.results == generic.results
    assert fast_dual == generic_dual
    if spec.q <= 27:
        oracle = slow_field_like(spec)
        vals = [int(v) for v in F.values]
        for r in fast.results:
            include = conv.admits_zero_shift(r.c)
            assert r.value == brute_uniformity(oracle, vals, r.c, include)


# -- orbits over c: Frobenius for invariant F, c -> 1/c for every F ----------

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


def _c_set(draw, spec):
    """'all', 'exclude_0_1' or an explicit list: rarely closed under
    Frobenius, sometimes holding a c and its 1/c, sometimes no c with its
    1/c (self-inverse c aside)."""
    c_set = draw(st.sampled_from(["all", "exclude_0_1", "list", "one_sided"]))
    if c_set in ("all", "exclude_0_1"):
        return c_set
    cs = draw(st.lists(st.integers(0, spec.q - 1), min_size=2, max_size=12, unique=True))
    if c_set == "one_sided":
        return [c for c in cs if c == 0 or c <= spec.inv(c) or spec.inv(c) not in cs]
    extra = draw(st.sampled_from(["none", "frobenius", "inverse"]))
    if extra == "frobenius":   # part of an orbit, in any order
        cs = list({*cs, spec.frobenius(cs[0])})
    elif extra == "inverse" and cs[0]:
        cs = list({*cs, spec.inv(cs[0])})
    return cs


@st.composite
def orbit_cases(draw):
    """(F, invariant, c_set)."""
    F, invariant = _orbit_function(draw)
    return F, invariant, _c_set(draw, F.spec)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(orbit_cases(), st.sampled_from([INC, NZ]))
@example((deca_trinomial(build_field(3, 5), 1), True, "exclude_0_1"), INC)
@example((deca_trinomial(build_field(3, 5), 2), True, "exclude_0_1"), NZ)
@example((inverse_table(build_field(2, 8)), True, "all"), NZ)
def test_orbit_dispatch_matches_every_c(case, conv):
    _check_dispatch(*case, conv)


def test_orbit_dispatch_needs_frobenius_and_two_cs():
    # GF(2) and a prime field (n = 1), and a single c take no Frobenius
    # step; c -> 1/c still pairs the c values of GF(7)
    for spec, cs in [(build_field(2, 1), [0, 1]), (build_field(7, 1), list(range(7))),
                     (build_field(3, 3), [2])]:
        F = from_monomial(spec, 2)
        rep = cdiff._c_orbits(F, cs)
        assert all(k == 0 for _, k, _ in rep.values())
        assert (rep == {c: (c, 0, False) for c in cs}) == (spec.q != 7)
        for conv in (INC, NZ):
            _check_dispatch(F, False, cs, conv)


def test_orbit_representative_is_smallest_requested_member(gf27):
    F = deca_trinomial(gf27, 1)
    assert sorted(_orbit(gf27, 9)) == [9, 13, 16, 20, 22, 25]
    assert (cdiff._c_orbits(F, [2, 13, 16])
            == {2: (2, 0, False), 13: (13, 0, False), 16: (13, 1, False)})
    # 20 = 1/16 and 22 = 1/13 = 1/16^9
    assert (cdiff._c_orbits(F, [2, 16, 20, 22])
            == {2: (2, 0, False), 16: (16, 0, False), 20: (16, 0, True),
                22: (16, 2, True)})


def test_orbit_image_is_recounted(gf27):
    F = deca_trinomial(gf27, 1)
    table = cdiff._scan(F, [13])
    # 16 = 13^3 and 22 = 1/13; a single c is scanned directly
    for c, k, neg in ((16, 1, False), (22, 0, True)):
        assert (cdiff._results(F, [(c, (13, k, neg), INC)], table)
                == (spectrum(F, [c], INC).results, 1))
        # the a >= 0 maximum, row 0's or the a >= 1 one, one too high
        inflated = table._replace(best=table.best + 1, row0=table.row0 + 1)
        with pytest.raises(WitnessMismatch):
            cdiff._results(F, [(c, (13, k, neg), INC)], inflated)


@pytest.mark.parametrize("p,n,coeffs", [(3, 3, {1: 1, 0: 2}), (3, 4, {1: 1, 0: 2}),
                                        (2, 5, {3: 1, 1: 1})])
def test_scan_records_hold_at_most_n_rows(p, n, coeffs):
    # x + 2 attains every maximum in every row, and both functions commute
    # with Frobenius, so orbit images read the witness table: 2n witness
    # rows per representative, one per element of <Frobenius, c -> 1/c>,
    # however many rows attain its maximum; each witness is still the
    # lexicographically smallest one in the dense DDT
    spec = build_field(p, n)
    F = from_polynomial(spec, coeffs)
    rep, table = cdiff._sweep(F, "all", 1)
    assert any(r != c for c, (r, _, _) in rep.items())
    assert F.symmetry.frobenius
    assert table.c.tolist() == [c for c, (r, _, _) in rep.items() if r == c]
    assert table.wit.shape == (len(table.c), n, 2)
    for conv in (INC, NZ):
        for res in spectrum(F, "all", conv).results:
            ddt = ddt_c(F, res.c)
            lo = 0 if conv.admits_zero_shift(res.c) else 1
            row_max = ddt[lo:].max(axis=1)
            a = lo + int(np.argmax(row_max == res.value))
            assert row_max.max() == res.value
            assert (res.witness_a, res.witness_b) == (a, int(ddt[a].argmax()))


def test_orbit_dispatch_scans_one_c_per_orbit():
    # GF(3^5): c = 2 = -1 is fixed and the other 240 values of c != 0, 1
    # form 48 Frobenius orbits of 5, paired by c -> 1/c; a changed value at
    # x = 5 leaves F not invariant, and c -> 1/c still pairs its 240 values;
    # uniformity scans its one c; each call scans its c values in one pass
    spec = build_field(3, 5)
    F = deca_trinomial(spec, 1)
    values = F.values.copy()
    values[5] = (values[5] + 1) % spec.q
    for G, scans in ((F, 25), (raw_table(spec, values), 121)):
        for call, count in ((lambda: spectrum(G, "exclude_0_1", INC), scans),
                            (lambda: dual_convention_max(G, "exclude_0_1"), scans),
                            (lambda: uniformity(G, 13, INC), 1)):
            with mock.patch.object(cdiff, "_row_maxima", wraps=cdiff._row_maxima) as scan:
                call()
            assert scan.call_count == 1
            ((_, _, c, rows), _), = scan.call_args_list
            assert len(set(np.broadcast_to(c, rows.shape).tolist())) == count


def test_sweep_logs_what_it_scanned(caplog):
    _require_compiled_scan()
    _check_sweep_record(caplog, "C")


def test_sweep_logs_the_numpy_kernel(caplog):
    with _numpy_scan():
        _check_sweep_record(caplog, "numpy")


def test_ddt_and_counts_log_the_compiled_kernel(caplog):
    _require_compiled_scan()
    _check_count_records(caplog, "C")


def test_ddt_and_counts_log_the_numpy_kernel(caplog):
    with _numpy_scan():
        _check_count_records(caplog, "numpy")


def _check_count_records(caplog, kernel):
    F = from_monomial(build_field(3, 3), 5)
    with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
        ddt_c(F, 2)
        _count_histogram(F, 2)
    records = [r for r in caplog.records if r.name == "cdiffkit"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert [r.getMessage() for r in records] == [
        f"ddt over GF(3^3): rows scanned 27, kernel {kernel}",
        "symmetry over GF(3^3): |stabilizer| 26, rows 2 of 27, frobenius yes",
        f"counts over GF(3^3): |stabilizer| 26, rows scanned 2 of 27, kernel {kernel}"]


def _check_sweep_record(caplog, kernel):
    # the deca trinomial over GF(3^5) is even: Λ = {1, -1}, so row 0 and 121
    # coset rows; 25 c values as above, in one pass of 25 x 122 rows at 128
    # a block; one witness row recounted for each convention, in one block
    F = deca_trinomial(build_field(3, 5), 1)
    with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
        dual_convention_max(F, "exclude_0_1")
    records = [r for r in caplog.records if r.name == "cdiffkit"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert [r.getMessage() for r in records] == [
        "symmetry over GF(3^5): |stabilizer| 2, rows 122 of 243, frobenius yes",
        ("sweep over GF(3^5): |stabilizer| 2, rows scanned 122 of 243, c requested 241, "
         f"c scanned 25, passes 1, blocks 24, kernel {kernel}"),
        "recount over GF(3^5): rows recounted 2 in 1 blocks, kernel numpy"]


def test_spectrum_logs_its_recount(caplog):
    # every c's witness row is recounted in numpy: 241 rows at 32 a block
    F = deca_trinomial(build_field(3, 5), 1)
    with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
        spectrum(F, "exclude_0_1", INC)
    records = [r for r in caplog.records if r.name == "cdiffkit"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert records[0].getMessage().startswith("symmetry over GF(3^5)")
    assert records[1].getMessage().startswith("sweep over GF(3^5)")
    assert [r.getMessage() for r in records[2:]] == [
        "recount over GF(3^5): rows recounted 241 in 8 blocks, kernel numpy"]


# -- stabilizers of order 1, 2, 3, 4 and q - 1 against every row and c -------

SYMMETRY_FIELDS = [(2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (13, 1)]
SYMMETRY_KINDS = ("random", "inverse", "scaled_monomial", "even", "binomial")


@st.composite
def symmetry_cases(draw):
    """(F, invariant, c_set, g): |Λ| is a multiple of g."""
    kind = draw(st.sampled_from(SYMMETRY_KINDS))
    fields = SYMMETRY_FIELDS
    if kind == "binomial":
        fields = [(p, n) for p, n in fields if (p ** n - 1) % 3 == 0 or (p ** n - 1) % 4 == 0]
    spec = build_field(*draw(st.sampled_from(fields)))
    q = spec.q
    g = 1
    if kind == "random":
        F = raw_table(spec, draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q)))
    elif kind == "inverse":
        F, g = inverse_table(spec), q - 1
    elif kind == "scaled_monomial":
        A, d = draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1))
        F, g = from_polynomial(spec, {d: A}), q - 1
    elif kind == "even":
        # F(-x) = F(x): -1 lies in Λ
        v = np.array(draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q)))
        x = np.arange(q)
        F, g = raw_table(spec, v[np.minimum(x, spec.neg_array(x))]), 2 if spec.p > 2 else 1
    else:
        # x^d1 + x^d2 with gcd(d1 - d2, q - 1) = g: every λ with λ^g = 1
        # gives F(λx) = λ^d2 F(x)
        g = draw(st.sampled_from([g for g in (3, 4) if (q - 1) % g == 0]))
        steps = [t for t in range(1, (q - 2) // g + 1) if math.gcd(g * t, q - 1) == g]
        t = draw(st.sampled_from(steps))
        d2 = draw(st.integers(1, q - 1 - g * t))
        F = from_polynomial(spec, {d2 + g * t: 1, d2: 1})
    invariant = all(F[spec.frobenius(x)] == spec.frobenius(F[x]) for x in range(q))
    return F, invariant, _c_set(draw, spec), g


@settings(max_examples=50, deadline=None, derandomize=True)
@given(symmetry_cases(), st.sampled_from([INC, NZ]))
@example((from_polynomial(build_field(2, 4), {4: 1, 1: 1}), True, "all", 3), INC)
@example((from_polynomial(build_field(7, 2), {5: 1, 1: 1}), True, "all", 4), NZ)
@example((from_polynomial(build_field(7, 2), {7: 1, 4: 1}), True, [2, 3, 9, 30], 3), INC)
def test_symmetry_dispatch_matches_every_row_and_c(case, conv):
    F, invariant, c_set, g = case
    rows = F.symmetry.rows
    assert (F.spec.q - 1) // (len(rows) - 1) % g == 0
    assert F.symmetry.frobenius == (invariant and F.spec.n > 1)
    _check_dispatch(F, invariant, c_set, conv)


STABILIZER_FIELDS = [(2, 4), (3, 3), (3, 4), (5, 2), (3, 2, (1, 0, 1))]


@pytest.mark.parametrize("pn", STABILIZER_FIELDS)
def test_stabilizer_generator_and_multiplier(pn):
    spec = build_field(*pn)
    q, p, g = spec.q, spec.p, spec.primitive_rank
    oracle = slow_field_like(spec)
    # (F, |Λ|, μ for the generator g^m of Λ)
    cases = [(from_monomial(spec, d), q - 1, oracle.pow(g, d)) for d in (1, 2, 3, q - 2)]
    cases += [(from_polynomial(spec, {p: 2 % p + 1}), q - 1, oracle.pow(g, p)),
              (from_polynomial(spec, {2: 1, 1: 1}), 1, 1),
              (raw_table(spec, np.zeros(q, dtype=int)), q - 1, g),   # F = 0: M = Λ
              (raw_table(spec, np.full(q, q - 1)), q - 1, 1)]
    for F, order, mu in cases:
        m, got = functions._stabilizer(spec, F.values)
        assert ((q - 1) // m, got) == (order, mu)
        lam = oracle.pow(g, m)
        vals = [int(v) for v in F.values]
        assert all(vals[oracle.mul(lam, x)] == oracle.mul(mu, vals[x]) for x in range(q))
        # the record's rows and coset minima are those of Λ = <g^m>
        sym = F.symmetry
        assert (sym.m, sym.mu, sym.order) == (m, mu, order)
        rows, coset_min = sym.rows, sym.coset_min
        assert rows.tolist() == _stabilizer_rows(spec, F.values)
        stab = [oracle.pow(lam, k) for k in range(order)]
        assert coset_min.tolist() == [min(oracle.mul(s, a) for s in stab) for a in range(q)]


# -- the derivative kernel against a literal loop over x ---------------------

@st.composite
def derivative_cases(draw):
    p, n = draw(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2), (7, 1), (7, 2)]))
    q = p ** n
    rank = st.integers(0, q - 1)
    values = draw(st.lists(rank, min_size=q, max_size=q))
    return build_field(p, n), values, draw(rank), draw(st.lists(rank, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(derivative_cases())
def test_derivative_rows_matches_literal_loop(case):
    spec, values, c, shifts = case
    slow = slow_field_like(spec)
    got = cdiff.derivative_rows(spec, np.array(values, dtype=np.int32), c, shifts)
    assert got.tolist() == [
        [slow.sub(values[slow.add(x, a)], slow.mul(c, values[x])) for x in range(spec.q)]
        for a in shifts]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(derivative_cases(), st.data())
def test_derivative_rows_takes_one_c_per_row(case, data):
    spec, values, _, shifts = case
    values = np.array(values, dtype=np.int32)
    cs = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=len(shifts),
                            max_size=len(shifts)))
    got = cdiff.derivative_rows(spec, values, np.array(cs), shifts)
    assert got.tolist() == [cdiff.derivative_rows(spec, values, c, [a])[0].tolist()
                            for c, a in zip(cs, shifts)]


@pytest.mark.parametrize("cs", [[0, 9], [-1, 2], [1.0, 2.0]])
def test_derivative_rows_checks_each_c(gf9, cs):
    values = np.arange(9, dtype=np.int32)
    with pytest.raises(ValueError):
        cdiff.derivative_rows(gf9, values, np.array(cs), [1, 2])


# -- the compiled histogram kernel against the numpy body --------------------

SCAN_FIELDS = [(2, 1), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
               (5, 3), (7, 1), (7, 2), (7, 3)]
# rows per block: 1 and 3 make most row lists span several blocks
BLOCK_ROWS = st.sampled_from([1, 3, cdiff._MAX_BLOCK_ROWS])


@st.composite
def scan_cases(draw, per_row=False):
    """(spec, values, c, rows): p in {2, 3, 5, 7} with n = 1, even n and odd
    n; a random table, a random list of rows and c in {0, 1, random}, or
    with per_row also one c per row: runs of c-major (c, a) pairs, as a
    sweep passes them, or any c for each row."""
    spec = build_field(*draw(st.sampled_from(SCAN_FIELDS)))
    rank = st.integers(0, spec.q - 1)
    values = np.array(draw(st.lists(rank, min_size=spec.q, max_size=spec.q)), dtype=np.int32)
    rows = np.array(draw(st.lists(rank, min_size=1, max_size=spec.q, unique=True)))
    c = st.sampled_from([0, 1]) | rank
    if per_row:
        cs = st.lists(c, min_size=1, max_size=8)
        c_major = st.tuples(cs, st.just(rows)).map(
            lambda t: (np.repeat(t[0], len(t[1])), np.tile(t[1], len(t[0]))))
        each = st.lists(rank, min_size=len(rows), max_size=len(rows)).map(
            lambda cs: (np.array(cs), rows))
        c, rows = draw(c.map(lambda c: (c, rows)) | c_major | each)
        return spec, values, c, rows
    return spec, values, draw(c), rows


def _block_rows(n):
    return mock.patch.object(cdiff, "_MAX_BLOCK_ROWS", n)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_cases(per_row=True), BLOCK_ROWS)
def test_compiled_count_blocks_match_numpy(case, block_rows):
    _require_compiled_scan()
    spec, values, c, rows = case

    def blocks():
        with _block_rows(block_rows):
            return [(a_list.tolist(), counts.tolist())
                    for a_list, counts in cdiff._count_blocks(spec, values, c, rows)]

    compiled = blocks()
    with _numpy_scan():
        assert blocks() == compiled
    assert [a for a_list, _ in compiled for a in a_list] == rows.tolist()
    assert all(len(a_list) <= block_rows for a_list, _ in compiled)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_cases(per_row=True))
def test_compiled_row_maxima_matches_numpy(case):
    # both kernels against a literal histogram of each row: the maximum and
    # the smallest b attaining it
    spec, values, c, rows = case
    hists = [np.bincount(d, minlength=spec.q)
             for d in cdiff.derivative_rows(spec, values, c, rows)]
    want = [[int(h.max()) for h in hists], [int(h.argmax()) for h in hists]]
    with _numpy_scan():
        assert [x.tolist() for x in cdiff._row_maxima(spec, values, c, rows)] == want
    _require_compiled_scan()
    assert [x.tolist() for x in cdiff._row_maxima(spec, values, c, rows)] == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scan_cases(), BLOCK_ROWS)
def test_compiled_statistics_match_numpy(case, block_rows):
    # ddt_c, the count side and derivative_walsh_statistic read the same
    # counts from either kernel; the Walsh statistics refuse c = 1
    _require_compiled_scan()
    spec, values, c, rows = case
    F = raw_table(spec, values)

    def statistics():
        with _block_rows(block_rows):
            out = [ddt_c(F, c).tolist()]
            if c != 1:
                out.append(_count_histogram(F, c).tolist())
                out += [derivative_walsh_statistic(F, c, int(a), 2) for a in rows[:3]]
            return out

    compiled = statistics()
    with _numpy_scan():
        assert statistics() == compiled


# -- the blocked witness recount against a recount of one c at a time -------

def _recount_one_c_at_a_time(F, conv, rep, entries):
    """Each c's witness row read from its representative's entry (see
    _scan_one_c_at_a_time) and recounted on its own: row 0 when a = 0 is
    admitted and row 0 reaches the a >= 1 maximum, else the (k, neg)
    witness; one derivative row and one bincount."""
    spec, values = F.spec, F.values
    results = []
    for c, (r, k, neg) in rep.items():
        best, row0, b0, b1, wit = entries[r]
        if conv.admits_zero_shift(c) and row0 >= best:
            a, value, b = 0, row0, b0
        else:
            a, value, b = wit[k][neg], best, b1
        d = cdiff.derivative_rows(spec, values, c, [a])[0]
        counts = np.bincount(d, minlength=spec.q)
        top = int(counts.argmax())
        assert counts[top] == value and (k or neg or top == b)
        results.append(cdiff.UniformityResult(
            c, value, a, top, tuple(np.flatnonzero(d == top).tolist()), conv))
    return tuple(results)


def _queries(rep, conv):
    return [(c, orbit, conv) for c, orbit in rep.items()]


RECOUNT_FIELDS = [(2, 1), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (3, 4),
                  (5, 2), (7, 2)]


@st.composite
def recount_cases(draw):
    """(F, c_set): a power map, the inverse, a deca trinomial or a random
    table, and a c-set holding 0 and 1."""
    kind = draw(st.sampled_from(["power", "inverse", "deca", "random"]))
    if kind == "deca":
        F = deca_trinomial(build_field(3, draw(st.sampled_from([3, 5]))),
                           draw(st.sampled_from([1, 2])))
    else:
        spec = build_field(*draw(st.sampled_from(RECOUNT_FIELDS)))
        rank = st.integers(0, spec.q - 1)
        if kind == "power":
            F = from_monomial(spec, draw(st.integers(1, spec.q)))
        elif kind == "inverse":
            F = inverse_table(spec)
        else:
            F = raw_table(spec, draw(st.lists(rank, min_size=spec.q, max_size=spec.q)))
    rank = st.integers(0, F.spec.q - 1)
    c_set = draw(st.just("all") | st.lists(rank, max_size=12).map(lambda cs: [0, 1, *cs]))
    return F, c_set


INVERSE_256 = inverse_table(build_field(2, 8))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(recount_cases(), st.sampled_from([INC, NZ]), st.sampled_from([1, 2]),
       st.sampled_from([1, 3, cdiff._MAX_RECOUNT_ROWS, 128]))
# 255 and 256 c values at 128 and 32 rows a block
@example((INVERSE_256, [c for c in range(256) if c != 1]), INC, 1, 128)
@example((INVERSE_256, "all"), NZ, 2, cdiff._MAX_RECOUNT_ROWS)
def test_blocked_recount_matches_one_c_at_a_time(case, conv, threads, block_rows):
    F, c_set = case
    rep, table = cdiff._sweep(F, c_set, threads)
    with mock.patch.object(cdiff, "_MAX_RECOUNT_ROWS", block_rows):
        results, blocks = cdiff._results(F, _queries(rep, conv), table)
    assert results == _recount_one_c_at_a_time(F, conv, rep, _entries(table))
    rows = min(block_rows, max(1, cdiff.BLOCK_ELEMENTS // F.spec.q))
    assert blocks == -(-len(rep) // rows)


# -- the batched scan against a scan of one c at a time ----------------------

def _scan_one_c_at_a_time(F, c):
    """c's witness table entry as a scan of c alone makes it, from a literal
    histogram of each stabilizer row: the a >= 1 maximum, row 0's maximum,
    the first b of row 0 and of the first row a >= 1 attaining the maximum,
    and wit[k][neg], the smallest coset minimum of ±a^(p^k) over those rows,
    for k < n under Frobenius and k = 0 otherwise."""
    spec, rows, coset_min = F.spec, F.symmetry.rows.tolist(), F.symmetry.coset_min
    hists = [np.bincount(d, minlength=spec.q)
             for d in cdiff.derivative_rows(spec, F.values, c, rows)]
    row_max = [int(h.max()) for h in hists]
    best = max(row_max[1:])
    first = row_max.index(best, 1)
    hit = [a for a, value in zip(rows[1:], row_max[1:]) if value == best]
    wit = []
    for k in range(spec.n if F.symmetry.frobenius else 1):
        images = [spec.pow(a, spec.p ** k) for a in hit]
        wit.append([min(int(coset_min[x]) for x in images),
                    min(int(coset_min[spec.neg(x)]) for x in images)])
    return best, row_max[0], int(hists[0].argmax()), int(hists[first].argmax()), wit


def _entries(table):
    """The witness table as {c: its entry}, in _scan_one_c_at_a_time's form."""
    return {c: tuple(entry) for c, *entry in zip(*(col.tolist() for col in table))}


def _batched_sweep(F, c_set, conv, threads, kernel):
    """The sweep's witness table as {c: entry}, and the results of the c-set."""
    if kernel == "C":
        _require_compiled_scan()
    with contextlib.nullcontext() if kernel == "C" else _numpy_scan():
        rep, table = cdiff._sweep(F, c_set, threads)
        results, _ = cdiff._results(F, _queries(rep, conv), table)
    return rep, _entries(table), results


# Λ = {1} in odd characteristic, so -a and a lie in different cosets and
# the witness of 1/c is not c's
RANDOM_49 = raw_table(build_field(7, 2), np.random.default_rng(49).integers(0, 49, 49))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(recount_cases(), st.sampled_from([INC, NZ]), st.sampled_from([1, 2]), BLOCK_ROWS,
       st.sampled_from(["C", "numpy"]))
@example((RANDOM_49, "all"), NZ, 1, cdiff._MAX_BLOCK_ROWS, "numpy")
def test_batched_scan_matches_one_c_at_a_time(case, conv, threads, block_rows, kernel):
    F, c_set = case
    with _block_rows(block_rows):
        rep, entries, results = _batched_sweep(F, c_set, conv, threads, kernel)
    assert entries == {r: _scan_one_c_at_a_time(F, r) for r in entries}
    assert results == _recount_one_c_at_a_time(F, conv, rep, entries)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", ["C", "numpy"])
def test_all_c_sweep_over_several_passes(caplog, threads, kernel):
    # x^3 over GF(2^11) commutes with Frobenius: 2048 c values in 95 orbits,
    # scanned at 32 a pass in 3 passes of at most 64 rows, 32 rows a block
    F = from_monomial(build_field(2, 11), 3)
    with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
        rep, entries, results = _batched_sweep(F, "all", NZ, threads, kernel)
    sweep = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep")]
    assert sweep == ["sweep over GF(2^11): |stabilizer| 2047, rows scanned 2 of 2048, "
                     f"c requested 2048, c scanned 95, passes 3, blocks 6, kernel {kernel}"]
    assert entries == {r: _scan_one_c_at_a_time(F, r) for r in entries}
    assert results == _recount_one_c_at_a_time(F, NZ, rep, entries)


@pytest.mark.parametrize("c_set", [[1], [2], [1, 2], "all"])
def test_dual_max_recounts_both_conventions_at_once(gf27, c_set):
    # c = 1 admits no a = 0 under either convention, c = 2 under one of them
    F = deca_trinomial(gf27, 1)
    with mock.patch.object(cdiff, "_results", wraps=cdiff._results) as recount:
        dual = dual_convention_max(F, c_set)
    assert recount.call_count == 1
    for conv in AConvention:
        first = max(spectrum(F, c_set, conv).results, key=lambda r: r.value)
        assert dual[conv.value] == (first.value, (first.c, first.witness_a, first.witness_b))


def _payloads(F, c_set, conv):
    return [(spectrum(F, c_set, conv, threads).to_json_dict(),
             dual_convention_max(F, c_set, threads)) for threads in (1, 2)]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(symmetry_cases(), st.sampled_from([INC, NZ]))
@example((deca_trinomial(build_field(3, 5), 1), True, "exclude_0_1", 2), INC)
@example((inverse_table(build_field(2, 8)), True, "all", 255), NZ)
def test_compiled_payloads_match_numpy(case, conv):
    _require_compiled_scan()
    F, _, c_set, _ = case
    compiled = _payloads(F, c_set, conv)
    with _numpy_scan():
        assert _payloads(F, c_set, conv) == compiled


@pytest.mark.parametrize("failure", [
    FileNotFoundError("cc"),
    subprocess.CalledProcessError(1, "cc"),
    subprocess.TimeoutExpired("cc", 120),
])
def test_failed_compile_falls_back_to_numpy(tmp_path, caplog, failure):
    F = deca_trinomial(build_field(3, 3), 1)
    cdiff._kernel.cache_clear()
    try:
        with mock.patch.object(cdiff, "_KERNEL_DIR", tmp_path), \
                mock.patch.object(cdiff.subprocess, "run", side_effect=failure):
            assert cdiff._kernel() is None
            with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
                fallback = _payloads(F, "all", INC)
    finally:
        cdiff._kernel.cache_clear()
    assert list(tmp_path.iterdir()) == []   # the temporary output is removed
    # every record that names a kernel names numpy
    messages = [r.getMessage() for r in caplog.records
                if r.name == "cdiffkit" and "kernel" in r.getMessage()]
    assert messages and all(m.endswith("kernel numpy") for m in messages)
    _require_compiled_scan()
    assert fallback == _payloads(F, "all", INC)


def test_compiled_scan_builds_into_an_empty_directory(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the compiled scan cannot be built")
    spec, values = build_field(3, 3), deca_trinomial(build_field(3, 3), 1).values
    cache = tmp_path / "cache"
    cache.mkdir()
    # a library built from an older source goes; anything else stays
    (cache / "_scan-00000000.so").write_bytes(b"stale")
    (cache / "notes.txt").write_text("unrelated")
    cdiff._kernel.cache_clear()
    try:
        with mock.patch.object(cdiff, "_KERNEL_DIR", cache):
            kernel = cdiff._kernel()
            assert kernel is not None
            built = cdiff._row_maxima(spec, values, 2, np.arange(27))
    finally:
        cdiff._kernel.cache_clear()
    library, notes = sorted(cache.iterdir())
    assert library.name.startswith("_scan-") and library.suffix == ".so"
    assert library.name != "_scan-00000000.so"
    assert notes.read_text() == "unrelated"
    with _numpy_scan():
        reference = cdiff._row_maxima(spec, values, 2, np.arange(27))
    assert [a.tolist() for a in built] == [a.tolist() for a in reference]


def test_compiled_scan_checks_ranks_before_the_call(gf27):
    kernel = mock.Mock()
    good = np.zeros(27, dtype=np.int32)
    bad = [(good, [27]), (good, [-1]), (good, [[0]]), (good, [0.5]),
           (np.full(27, 27), [0]), (np.full(27, -1), [0]), (np.zeros(26, dtype=np.int32), [0])]
    with mock.patch.object(cdiff, "_kernel", return_value=kernel):
        for values, rows in bad:
            for call in (cdiff._row_maxima, lambda *args: list(cdiff._count_blocks(*args))):
                with pytest.raises(ValueError):
                    call(gf27, values, 1, np.array(rows))
    kernel.assert_not_called()


@pytest.mark.parametrize("kernel", ["C", "numpy"])
@pytest.mark.parametrize("cs", [[2, 2, -1], [2, 2, 27], [2, 2.0, 3], [2, 3], [[2, 2, 3]]])
def test_per_row_c_is_checked_before_the_call(gf27, kernel, cs):
    # the bad c is in the last row, at one row a block, so a check made block
    # by block would let the first blocks run; derivative_rows is the numpy
    # body's kernel
    rows, values = np.array([1, 2, 3]), np.zeros(27, dtype=np.int32)
    compiled, numpy_rows = mock.Mock(), mock.Mock()
    with _block_rows(1), \
            mock.patch.object(cdiff, "_kernel", return_value=compiled if kernel == "C" else None), \
            mock.patch.object(cdiff, "derivative_rows", numpy_rows):
        for call in (cdiff._row_maxima, lambda *args: list(cdiff._count_blocks(*args))):
            with pytest.raises(ValueError):
                call(gf27, values, np.array(cs), rows)
    compiled.assert_not_called()
    numpy_rows.assert_not_called()
