import functools
import importlib
import inspect
import logging
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdiffkit import (AConvention, CyclotomicInt, FieldSpec, apcn_statistic, build_field,
                      convolution_statistic, ddt_c,
                      derivative_walsh_statistic, dual_convention_max,
                      from_monomial, from_polynomial, inverse_table,
                      pcn_power_sum, raw_table, spectrum, uniformity,
                      walsh_table, walsh_value)
from cdiffkit import functions
from cdiffkit.errors import NotRationalInteger, SizeGuardExceeded
from cdiffkit.walsh import (_count_frequencies, _count_histogram, _dft, _hat_g_rows,
                            _take, _walsh_columns, _walsh_histogram, _width,
                            walsh_check)

from oracles import (brute_convolution_tensor, brute_derivative_statistic,
                     brute_pcn_sum, brute_walsh, brute_walsh_table,
                     ddt_counts, slow_field_like)
from records import trivial_record

INC = AConvention.INCLUDE_A_ZERO
walsh_module = importlib.import_module("cdiffkit.walsh")


# -- cyclotomic arithmetic ---------------------------------------------------

def test_cyclotomic_relation_collapses():
    assert CyclotomicInt(3, [1, 1, 1]).is_zero()
    assert CyclotomicInt(5, [2, 2, 2, 2, 2]).is_zero()


def test_p2_degenerates_to_integers():
    a = CyclotomicInt.integer(2, -3)
    b = CyclotomicInt.integer(2, 2)
    assert (a * b).as_integer() == -6
    z = CyclotomicInt(2, [4, 1])   # 4 - 1 since zeta_2 = -1
    assert z.as_integer() == 3


def test_norm_sq_one_minus_zeta():
    z = CyclotomicInt.integer(3, 1) - CyclotomicInt.zeta_power(3, 1)
    assert z.norm_sq().as_integer() == 3


def test_as_integer_raises():
    with pytest.raises(NotRationalInteger):
        CyclotomicInt.zeta_power(5, 2).as_integer()


coeffs5 = st.lists(st.integers(-40, 40), min_size=5, max_size=5)
coeffs3 = st.lists(st.integers(-40, 40), min_size=3, max_size=3)


@given(coeffs3, coeffs3, coeffs3)
def test_ring_axioms_p3(a, b, c):
    za, zb, zc = (CyclotomicInt(3, v) for v in (a, b, c))
    assert (za + zb) * zc == za * zc + zb * zc
    assert za * zb == zb * za
    assert (za * zb) * zc == za * (zb * zc)
    assert za + (-za) == CyclotomicInt.integer(3, 0)


@given(coeffs5, coeffs5)
def test_conj_is_ring_automorphism_p5(a, b):
    za, zb = CyclotomicInt(5, a), CyclotomicInt(5, b)
    assert (za * zb).conj() == za.conj() * zb.conj()
    assert (za + zb).conj() == za.conj() + zb.conj()
    assert za.conj().conj() == za


@given(coeffs5)
def test_canonical_form_p5(a):
    z = CyclotomicInt(5, a)
    assert z.coeffs[-1] == 0
    # adding the zero relation does not change the element
    rel = CyclotomicInt(5, [1, 1, 1, 1, 1])
    assert z + rel == z


# -- walsh transform ----------------------------------------------------------

def test_walsh_at_origin_is_q(gf9):
    for d in (1, 2, 5):
        F = from_monomial(gf9, d)
        assert walsh_value(F, 0, 0).as_integer() == 9


def test_walsh_identity_orthogonality(gf8):
    F = from_monomial(gf8, 1)
    for u in range(8):
        for v in range(8):
            expect = 8 if u == v else 0
            assert walsh_value(F, u, v).as_integer() == expect


def test_walsh_square_gf3_is_bent():
    gf3 = build_field(3, 1)
    F = from_monomial(gf3, 2)
    for u in range(3):
        for v in (1, 2):
            assert walsh_value(F, u, v).norm_sq().as_integer() == 3


def test_walsh_matches_oracle():
    for (p, n, d) in [(2, 3, 3), (3, 2, 2), (2, 4, 7)]:
        spec = build_field(p, n)
        F = from_monomial(spec, d)
        oracle = slow_field_like(spec)
        vals = [F[x] for x in range(spec.q)]
        for u in range(spec.q):
            for v in range(spec.q):
                assert (walsh_value(F, u, v)
                        == CyclotomicInt(p, brute_walsh(oracle, vals, u, v)))


def _canonical(arr):
    """The coefficient vectors of a (..., p) array with the last coefficient
    subtracted, as CyclotomicInt stores them: two entries are equal in
    Z[zeta_p] iff these are equal."""
    return arr - arr[..., -1:]


# the last two take custom moduli under which x is not primitive: the trace
# one-hot of the Walsh array must follow the modulus
TRANSFORM_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2),
                    (3, 3), (5, 1), (5, 2), (7, 1), (7, 2),
                    (3, 2, (1, 0, 1)), (2, 4, (1, 1, 1, 1, 1))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(TRANSFORM_FIELDS), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 48), st.integers(1, 3))
@example((2, 2), 0, 3, 2)
@example((2, 5), 1, 7, 3)
@example(TRANSFORM_FIELDS[-2], 2, 5, 2)
@example(TRANSFORM_FIELDS[-1], 3, 7, 1)
def test_transform_matches_character_sums(pn, seed, d, k):
    spec = build_field(*pn)
    q, p = spec.q, spec.p
    oracle = slow_field_like(spec)
    oracle.trace = functools.cache(oracle.trace)   # brute_walsh_table: q^3 calls
    rng = np.random.default_rng(seed)
    for F in (raw_table(spec, rng.integers(0, q, q)), from_monomial(spec, d)):
        want = brute_walsh_table(oracle, [F[x] for x in range(q)])
        assert np.array_equal(_canonical(_walsh_values(F)), _canonical(np.array(want)))
    # out[s] = sum_w zeta^<s, w> arr[w] over base-p digit vectors s, w;
    # multiplying by zeta^e rotates by e
    arr = rng.integers(-1000, 1000, size=(q, k, p), dtype=np.int64)
    digits = [[r // p ** i % p for i in range(spec.n)] for r in range(q)]
    dot = [[sum(a * b for a, b in zip(digits[s], digits[w])) for w in range(q)]
           for s in range(q)]
    want = np.array([sum(np.roll(arr[w], dot[s][w], axis=-1) for w in range(q))
                     for s in range(q)])
    # the transform overwrites its input, and its entries are those sums in
    # Z[zeta_p]: the same canonical coefficients
    assert np.array_equal(_canonical(_dft(arr.copy(), p)), _canonical(want))


@pytest.mark.parametrize("q,p", [(256, 2), (243, 3), (49, 7)])
def test_dft_peaks_at_one_buffer(q, p):
    # the stages alternate between the input and one buffer of its size; a
    # rotated term is added as two slices in place, with no temporary
    arr = np.random.default_rng(q).integers(-3, 3, size=(q, q, p))
    tracemalloc.start()
    try:
        _dft(arr, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arr.nbytes + 2 ** 18


# -- the column reduction against the generic path ----------------------------

def _walsh_values(F):
    """All Walsh values as a (q, q, p) array: entry [u, v] is a coefficient
    vector of W_F(u, v) in Z[zeta_p], gathered from the transformed
    columns."""
    return _take(F, _walsh_columns(F, None, F.spec.q))


def _histograms(F, c):
    """The Walsh side's and the count side's histograms of n_F(a, b, c),
    freq[m] = #{(a, b) : n_F(a, b, c) = m}, without trailing zeros: the
    count side's vector has q + 1 entries, the Walsh side's one more than
    the largest count."""
    return [np.trim_zeros(freq, "b") for freq in
            (_walsh_histogram(F, c), _count_histogram(F, c))]


def _power_sum(freq, j):
    return sum(int(f) * m ** (j + 1) for m, f in enumerate(freq))


@st.composite
def walsh_cases(draw):
    """(F, c, kind) over a field of TRANSFORM_FIELDS or GF(3^4), c != 1."""
    spec = build_field(*draw(st.sampled_from(TRANSFORM_FIELDS + [(3, 4)])))
    q, p = spec.q, spec.p
    rank = st.integers(0, q - 1)
    kind = draw(st.sampled_from(["power", "linearized", "raw", "constant"]))
    if kind == "power":
        F = from_polynomial(spec, {draw(st.integers(1, q - 1)): draw(st.integers(1, q - 1))})
    elif kind == "linearized":
        F = from_polynomial(spec, {p ** i: draw(rank) for i in range(spec.n)})
    elif kind == "raw":
        F = raw_table(spec, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
                      .integers(0, q, q))
    else:
        F = raw_table(spec, np.full(q, draw(rank)))   # F = 0 included
    return F, draw(rank.filter(lambda c: c != 1)), kind


@settings(max_examples=40, deadline=None, derandomize=True)
@given(walsh_cases())
@example((from_polynomial(build_field(2, 4), {3: 1}), 2, "power"))   # 3 cosets of M
@example((from_polynomial(build_field(3, 4), {2: 1}), 2, "power"))   # |ker μ| = 2
@example((from_polynomial(build_field(3, 2, (1, 0, 1)), {4: 5}), 5, "power"))
@example((raw_table(build_field(3, 3), np.zeros(27, dtype=int)), 2, "constant"))
def test_column_reduction_matches_generic(case):
    F, c, kind = case
    spec = F.spec
    q = spec.q
    if kind == "power":
        # A x^d: Λ = GF(q)^*, M = <g^d>, 1 + gcd(d, q - 1) columns
        d = next(iter(F.origin["coeffs"]))
        sym = F.symmetry
        assert len(sym.columns.cols) == 1 + math.gcd(d, q - 1)
        assert list(sym.rows) == [0, 1] and sym.order == q - 1
    W, table = _walsh_values(F), walsh_table(F)
    pcn, freq = pcn_power_sum(F, c), _walsh_histogram(F, c)
    G = trivial_record(F)
    sym = G.symmetry
    assert len(sym.columns.cols) == len(sym.rows) == q
    assert np.array_equal(_walsh_values(G), W)
    assert walsh_table(G).entries == table.entries
    assert pcn_power_sum(G, c) == pcn
    assert np.array_equal(_walsh_histogram(G, c), freq)
    if q <= 27:
        oracle = slow_field_like(spec)
        oracle.trace = functools.cache(oracle.trace)
        vals = [F[x] for x in range(q)]
        want = np.array(brute_walsh_table(oracle, vals))
        assert np.array_equal(_canonical(W), _canonical(want))
        assert pcn == brute_pcn_sum(oracle, vals, c)


def test_walsh_array_logs_columns(caplog):
    # x^2 over GF(3^4): Λ = GF(81)^*, M = the squares, 2 cosets
    F = from_monomial(build_field(3, 4), 2)
    with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
        pcn = pcn_power_sum(F, 2)
    records = [r for r in caplog.records if r.name == "cdiffkit"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert [r.getMessage() for r in records] == [
        "symmetry over GF(3^4): |stabilizer| 80, rows 2 of 81, frobenius yes",
        "walsh array over GF(3^4): |stabilizer| 80, columns transformed 3 of 81, "
        "rows of hat G 2 of 81"]
    assert pcn == pcn_power_sum(F, 2) == 81 ** 2 * _power_sum(_count_histogram(F, 2), 1)


def _assert_hat_g_rows(F, c):
    # hat G(s, t) = q^2 n_F(s, -t, c): a rational integer, so its canonical
    # coefficients (last one zero) are q^2 n_F(s, -t, c), 0, ..., 0.  Column
    # i of R holds row s = rows[i] of hat G at labels t(t), where digit k of
    # t(t) is Tr(t alpha^k) and alpha^k has rank p^k
    spec = F.spec
    q = spec.q
    neg = spec.neg_array(np.arange(q))
    t = sum(spec.trace_all()[spec.scale_array(spec.p ** i, np.arange(q))] * spec.p ** i
            for i in range(spec.n))
    assert np.array_equal(t, spec.trace_labels)
    assert np.array_equal(np.sort(t), np.arange(q))
    rows = F.symmetry.rows
    R = _hat_g_rows(F, c)
    want = np.zeros((q, len(rows), spec.p), dtype=np.int64)
    want[..., 0] = q * q * ddt_c(F, c)[np.ix_(rows, neg)].T
    assert np.array_equal(R[t] - R[t][..., -1:], want)
    return F.symmetry


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(TRANSFORM_FIELDS), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 16))
@example(TRANSFORM_FIELDS[-2], 2, 5)
@example(TRANSFORM_FIELDS[-1], 3, 7)
def test_transformed_g_is_q2_times_ddt(pn, seed, drawn):
    # with the trivial stabilizer every row is transformed
    spec = build_field(*pn)
    q = spec.q
    F = raw_table(spec, np.random.default_rng(seed).integers(0, q, q))
    for c in (0, 1, drawn % q):
        _assert_hat_g_rows(F, c)
        assert len(_assert_hat_g_rows(trivial_record(F), c).rows) == q


@pytest.mark.parametrize("pn", [(2, 4), (3, 3), (5, 2), (3, 4), (7, 2),
                                TRANSFORM_FIELDS[-2], TRANSFORM_FIELDS[-1]])
def test_hat_g_coset_rows(pn):
    # power maps and the inverse: row 0 and one row per coset of Λ, read
    # from the u-transformed columns at λs; a random table for contrast
    spec = build_field(*pn)
    q = spec.q
    rng = np.random.default_rng(q)
    # a x^p + x, a of rank 2, has Λ = GF(p)^*: p - 1 rows per coset, and a
    # trivial Λ for p = 2
    for F in (from_monomial(spec, 3), from_monomial(spec, q - 2),
              from_polynomial(spec, {spec.p: 2, 1: 1}),
              raw_table(spec, rng.integers(0, q, q))):
        for c in (0, 1, 2, q - 1, int(rng.integers(2, q))):
            _assert_hat_g_rows(F, c)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1), (7, 1)])
def test_count_frequencies_rejects_non_counts(p, n):
    spec = build_field(p, n)
    q = spec.q
    F = raw_table(spec, np.random.default_rng(q).integers(0, q, q))
    G = trivial_record(F)
    Ghat = _hat_g_rows(G, 2)   # every row
    assert np.array_equal(_count_frequencies(Ghat, q * q),
                          np.bincount(ddt_c(F, 2).ravel()))
    # entry [1, 2]: coefficient 0 off by one (not a multiple of q^2), then
    # made -q^2, then coefficient 1 off by one (not rational; p >= 3)
    value = int(Ghat[1, 2, 0] - Ghat[1, 2, -1])
    mutants = [(0, 1), (0, -value - q * q)] + [(1, 1)] * (p >= 3)
    for k, step in mutants:
        bad = Ghat.copy()
        bad[1, 2, k] += step
        with pytest.raises(NotRationalInteger):
            _count_frequencies(bad, q * q)


def test_walsh_module_not_shadowed():
    import cdiffkit.walsh as w
    assert inspect.ismodule(w)
    assert callable(w.convolution_statistic)


def test_walsh_table_invariants(gf9):
    F = from_monomial(gf9, 5)
    W = walsh_table(F)
    assert W[0, 0].as_integer() == 9
    for u in range(1, 9):
        assert W[u, 0].is_zero()
    blob = W.to_json_dict()
    assert len(blob["entries"]) == 9 and len(blob["entries"][3]) == 9


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (7, 2)])
def test_walsh_table_shares_equal_entries(p, n):
    spec = build_field(p, n)
    rng = np.random.default_rng(p * 100 + n)
    for F in (from_monomial(spec, 2), raw_table(spec, rng.integers(0, spec.q, spec.q))):
        W = walsh_table(F)
        arr = _walsh_values(F)
        objects = {}
        for u in range(spec.q):
            for v in range(spec.q):
                z = W[u, v]
                assert z == CyclotomicInt.from_exponent_counts(p, arr[u, v])
                assert objects.setdefault(z.coeffs, z) is z


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (3, 4)])
def test_parseval_per_component(p, n):
    spec = build_field(p, n)
    F = from_monomial(spec, min(3, spec.q - 1))
    W = walsh_table(F)
    for v in range(spec.q):
        total = CyclotomicInt.integer(p, 0)
        for u in range(spec.q):
            total = total + W[u, v].norm_sq()
        assert total.as_integer() == spec.q ** 2


# -- statistics: dual-route agreement ----------------------------------------

def test_pcn_identity_equality(gf9):
    F = from_monomial(gf9, 1)
    for c in (0, 2, 5):
        assert pcn_power_sum(F, c) == 3 ** 8


def test_pcn_square_gf3_strict():
    gf3 = build_field(3, 1)
    F = from_monomial(gf3, 2)
    s = pcn_power_sum(F, 2)
    assert s > 3 ** 4
    assert s == brute_pcn_sum(slow_field_like(gf3), [F[x] for x in range(3)], 2)


def test_pcn_coulter_matthews_gf27_equality(gf27):
    F = from_monomial(gf27, 5)
    c = gf27.neg(1)
    assert pcn_power_sum(F, c) == 3 ** 12
    assert uniformity(F, c, INC).value == 1


@pytest.mark.parametrize("p,n", [(7, 3), (2, 9)])
def test_pcn_above_q256_matches_counts(p, n):
    spec = build_field(p, n)
    q = spec.q
    rng = np.random.default_rng(q)
    for F in (from_polynomial(spec, {1: 2}), from_monomial(spec, 2),
              raw_table(spec, rng.integers(0, q, q))):
        for c in (0, 2, q - 1):
            s = pcn_power_sum(F, c)
            assert s == q ** 2 * _power_sum(_count_histogram(F, c), 1)
            assert s >= p ** (4 * n)
            assert (s == p ** (4 * n)) == (uniformity(F, c, INC).value == 1)


def test_pcn_rejects_c1(gf9):
    # c = q and c = -1 too: only c r for the transformed columns r is
    # formed, so c itself is checked, whatever the stabilizer
    for d in (1, 2, 4):
        F = from_monomial(gf9, d)
        for c in (1, 9, -1):
            with pytest.raises(ValueError):
                pcn_power_sum(F, c)


def test_tensor_matches_brute_force():
    cases = [
        (build_field(3, 2), {"kind": "monomial", "d": 2}, 2),
        (build_field(2, 3), {"kind": "monomial", "d": 3}, 7),
        (build_field(2, 2), None, 2),
    ]
    rng = np.random.default_rng(11)
    for spec, desc, c in cases:
        if desc is None:
            F = raw_table(spec, rng.integers(0, spec.q, spec.q))
        else:
            F = from_monomial(spec, desc["d"])
        oracle = slow_field_like(spec)
        vals = [F[x] for x in range(spec.q)]
        freq = _walsh_histogram(F, c)
        for j in ((1, 2, 3) if spec.q == 4 else (1, 2)):
            # the (j+1)-fold tensor is q^(2j) times the j-th sum
            assert (spec.q ** (2 * j) * _power_sum(freq, j)
                    == brute_convolution_tensor(oracle, vals, c, j))


def test_count_walsh_duality():
    # the histogram of n_F(a,b,c) read from hat G equals the counted one,
    # so every sum over it agrees: the sums of n_F^(j+1) are the (j+1)-fold
    # convolution tensors over p^(2jn)
    rng = np.random.default_rng(23)
    for (p, n) in [(2, 2), (3, 1), (2, 3), (3, 2), (2, 4)]:
        spec = build_field(p, n)
        for F in (from_monomial(spec, 2),
                  raw_table(spec, rng.integers(0, spec.q, spec.q))):
            for c in (0, 2):
                walsh, counts = _histograms(F, c)
                assert np.array_equal(walsh, counts)


def test_apcn_square_gf9_equality(gf9):
    lhs, rhs = apcn_statistic(from_monomial(gf9, 2), 2)
    assert lhs == rhs


def test_apcn_identity_equality(gf9):
    lhs, rhs = apcn_statistic(from_monomial(gf9, 1), 5)
    assert lhs == rhs   # uniformity 1 <= 2


def test_apcn_gold_gf8_strict(gf8):
    lhs, rhs = apcn_statistic(from_monomial(gf8, 3), 7)
    assert lhs > rhs    # uniformity 3


def test_apcn_size_guard():
    # x^2 over GF(3^4): 3 columns and 2 rows of hat G, so apcn holds
    # arrays of q x 3 x p = 729 entries
    F = from_monomial(build_field(3, 4), 2)
    with pytest.raises(SizeGuardExceeded):
        apcn_statistic(F, 2, size_guard=728)
    lhs, rhs = apcn_statistic(F, 2, size_guard=None)
    assert lhs == rhs
    assert apcn_statistic(F, 2, size_guard=729) == (lhs, rhs)
    assert apcn_statistic(F, 2) == (lhs, rhs)


def test_walsh_guard_refuses_before_allocating():
    # GF(2^12): q^2 p = 2^25 entries, above WALSH_ENTRY_GUARD = 2^23; one
    # (q, q, p) int64 array would take 256 MB.  walsh_table holds q^2
    # entries whatever F is; x^3 + x has a trivial stabilizer, so every
    # column and row is held.  The count side needs no such array.
    spec = build_field(2, 12)
    F = from_polynomial(spec, {3: 1, 1: 1})
    count_side, walsh_side = convolution_statistic(F, 2, 1)
    assert walsh_side is None
    assert (count_side == 0) == (uniformity(F, 2, INC).value == 1)
    for call, G in ((walsh_table, from_monomial(spec, 3)),
                    (lambda F: pcn_power_sum(F, 2), F),
                    (lambda F: apcn_statistic(F, 2), F)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardExceeded):
                call(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_g_is_transformed_once(gf16):
    # one transform builds W, one transforms the columns of G along u and
    # one the rows of hat G along v, whatever the degree or delta
    F = from_monomial(gf16, 5)
    calls = [lambda: apcn_statistic(F, 2), lambda: pcn_power_sum(F, 2)]
    calls += [lambda delta=delta: convolution_statistic(F, 2, delta) for delta in (1, 2, 3)]
    calls += [lambda delta=delta: walsh_check(F, 2, delta) for delta in (1, 3)]
    for call in calls:
        with mock.patch.object(walsh_module, "_dft",
                               wraps=walsh_module._dft) as transform:
            call()
        assert transform.call_count == 3


def test_c_is_checked_before_any_transform(gf16):
    F = from_monomial(gf16, 3)
    for call in (apcn_statistic, pcn_power_sum):
        for c in (16, -1, 1):
            with mock.patch.object(walsh_module, "_dft",
                                   wraps=walsh_module._dft) as transform:
                with pytest.raises(ValueError):
                    call(F, c)
            assert transform.call_count == 0


def test_statistics_peak_at_two_arrays():
    # a random table has trivial Λ and M: every column and every row is
    # transformed, and at most two (q, q, p) int64 arrays are live, plus
    # blocks of at most BLOCK_ELEMENTS coefficients and histograms
    spec = build_field(2, 9)
    q, p = spec.q, spec.p
    F = raw_table(spec, np.random.default_rng(q).integers(0, q, q))
    sym = F.symmetry
    assert len(sym.columns.cols) == len(sym.rows) == q
    for call in (lambda: apcn_statistic(F, 2), lambda: pcn_power_sum(F, 2)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.32 * q * q * p * 8


# -- the row-reduced count side against every row and the oracle -----------

COUNT_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1),
                (5, 2), (7, 1), (13, 1), (2, 6), (3, 4), (7, 2)]
COUNT_KINDS = ("power", "inverse", "q-1", "linearized", "constant", "zero", "raw")


@st.composite
def count_cases(draw):
    """(F, c): F of one of COUNT_KINDS over a field with q <= 81, and c
    from {0, 2, q - 1} or drawn."""
    spec = build_field(*draw(st.sampled_from(COUNT_FIELDS)))
    q, p = spec.q, spec.p
    rank = st.integers(0, q - 1)
    kind = draw(st.sampled_from(COUNT_KINDS))
    if kind == "power":
        F = from_polynomial(spec, {draw(st.integers(1, q - 1)): draw(st.integers(1, q - 1))})
    elif kind == "inverse":
        F = inverse_table(spec)
    elif kind == "q-1":
        F = from_monomial(spec, q - 1)   # Λ = GF(q)^*, M trivial
    elif kind == "linearized":
        F = from_polynomial(spec, {p ** i: draw(rank) for i in range(spec.n)})
    elif kind == "constant":
        F = raw_table(spec, np.full(q, draw(st.integers(1, q - 1))))
    elif kind == "zero":
        F = raw_table(spec, np.zeros(q, dtype=int))
    else:
        F = raw_table(spec, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
                      .integers(0, q, q))
    return F, draw(st.sampled_from([0, 2 % q, q - 1]) | rank)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(count_cases())
@example((from_monomial(build_field(3, 3), 2), 2))            # |Λ| = 26, |M| = 13
@example((from_monomial(build_field(3, 3), 26), 26))          # x^(q-1)
@example((raw_table(build_field(2, 4), np.zeros(16, dtype=int)), 0))      # F = 0
@example((from_polynomial(build_field(5, 2), {5: 2, 1: 1}), 3))   # Λ = GF(5)^*
def test_count_side_matches_every_row(case):
    # the rows of a coset aΛ share one histogram, so the count side scans
    # row 0 and one row per coset and weights the coset rows by |Λ|; that
    # must equal the scan of every row and the brute-force counts
    F, c = case
    spec = F.spec
    q = spec.q
    with mock.patch.object(walsh_module, "_count_blocks",
                           wraps=walsh_module._count_blocks) as blocks:
        freq = _count_histogram(F, c)
    assert blocks.call_args.args[3].tolist() == F.symmetry.rows.tolist()
    sums = [_power_sum(freq, j) for j in (1, 2, 3)]
    # the two sides' histograms agree as whole vectors
    walsh, counts = _histograms(F, c)
    assert np.array_equal(walsh, counts)
    G = trivial_record(F)
    assert np.array_equal(_count_histogram(G, c), freq)
    assert all(np.array_equal(a, counts) for a in _histograms(G, c))
    if q <= 27:
        counts = ddt_counts(slow_field_like(spec), [int(v) for v in F.values], c).values()
        assert sums == [sum(n ** (j + 1) for n in counts) for j in (1, 2, 3)]


def test_one_stabilizer_search_per_table(gf27):
    # whichever query comes first finds F's symmetry record, and every later
    # one reads it: the sweep and its workers (threads 1 and 2), the count
    # side and the Walsh side; a search in a worker would fail the query
    calls = [lambda F: uniformity(F, 2, INC), lambda F: pcn_power_sum(F, 2),
             lambda F: apcn_statistic(F, 2), lambda F: convolution_statistic(F, 2, 2),
             lambda F: walsh_table(F), lambda F: walsh_check(F, 2, 3)]
    for threads in (1, 2):
        calls += [lambda F, t=threads: spectrum(F, "all", INC, t),
                  lambda F, t=threads: dual_convention_max(F, "nonzero", t)]
    parent, stabilizer = os.getpid(), functions._stabilizer

    def search_in_parent(spec, values):
        assert os.getpid() == parent, "a worker searched for the stabilizer"
        return stabilizer(spec, values)

    for first in range(len(calls)):
        F = from_polynomial(gf27, {5: 1, 1: 2})
        with mock.patch.object(functions, "_stabilizer",
                               side_effect=search_in_parent) as search:
            calls[first](F)
            assert search.call_count == 1
            for call in calls:
                call(F)
        assert search.call_count == 1


def test_one_column_map_per_table():
    # F's column map (the cosets of M) is built on its first Walsh query and
    # kept with its record, and the labels once per field, whichever Walsh
    # query runs; a spectrum builds neither.  A new field model, so no
    # earlier test has built its labels
    spec = FieldSpec(3, 3)
    labels = FieldSpec.__dict__["trace_labels"]
    calls = [lambda F: pcn_power_sum(F, 2), lambda F: apcn_statistic(F, 2),
             lambda F: convolution_statistic(F, 2, 2), lambda F: walsh_check(F, 2, 2),
             lambda F: walsh_table(F)]
    with mock.patch.object(FieldSpec, "cosets", autospec=True,
                           side_effect=FieldSpec.cosets) as cosets, \
            mock.patch.object(labels, "func", wraps=labels.func) as build:
        F = from_polynomial(spec, {5: 1, 1: 2})   # |Λ| = 2, M = {1, -1}
        spectrum(F, "all", INC)
        assert (cosets.call_count, build.call_count) == (1, 0)   # the cosets of Λ
        assert "columns" not in vars(F.symmetry) and "trace_labels" not in vars(spec)
        for _ in range(2):
            for call in calls:
                call(F)
        assert (cosets.call_count, build.call_count) == (2, 1)
        G = from_monomial(spec, 2)
        for call in calls:
            call(G)
        assert (cosets.call_count, build.call_count) == (4, 1)


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10)])
def test_walsh_check_past_the_raw_dft_bound(p, n):
    # x^3 over GF(2^16) and the inverse over GF(3^10): the last transform's
    # input (the gathered rows of hat G) carries a large multiple of 1 +
    # zeta + ... + zeta^(p-1) = 0, above _dft's int64 bound unless each
    # entry's last coefficient is subtracted first
    spec = build_field(p, n)
    q = spec.q
    F = from_monomial(spec, 3) if p == 2 else inverse_table(spec)
    pcn, (lhs, _), (count_side, walsh_side) = walsh_check(F, 2, 2)
    counts = _count_histogram(F, 2)
    assert walsh_side == count_side
    assert (pcn, lhs) == (q ** 2 * _power_sum(counts, 1), q ** 4 * _power_sum(counts, 2))


def test_count_side_is_one_pass(gf16):
    # every power sum of the count side comes from one derivative sweep
    F = from_monomial(gf16, 5)
    for call in (lambda: convolution_statistic(F, 2, 3), lambda: walsh_check(F, 2, 3)):
        with mock.patch.object(walsh_module, "_count_blocks",
                               wraps=walsh_module._count_blocks) as blocks:
            call()
        assert blocks.call_count == 1


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2), (2, 6)])
def test_walsh_check_matches_each_statistic(p, n):
    # walsh_check makes one query where the three statistics make three;
    # every value must equal theirs, and for q <= 27 the sums over the
    # brute-force counts: pcn = q^2 sum n^2, apcn = (q^4 sum n^3,
    # 3 q^4 sum n^2 - 2 q^6), count side = sum n (n-1)...(n-delta)
    spec = build_field(p, n)
    q = spec.q
    rng = np.random.default_rng(q)
    for F in (from_monomial(spec, 2), from_monomial(spec, 3), inverse_table(spec),
              raw_table(spec, rng.integers(0, q, q))):
        for c in sorted({0, 2 % q, q - 1}):
            counts = None
            if q <= 27:
                counts = list(ddt_counts(slow_field_like(spec),
                                         [int(v) for v in F.values], c).values())
            for delta in (1, 2, 3):
                pcn, apcn, conv = walsh_check(F, c, delta)
                assert pcn == pcn_power_sum(F, c)
                assert apcn == apcn_statistic(F, c)
                assert conv == convolution_statistic(F, c, delta)
                if counts is None:
                    continue
                s1, s2 = (sum(m ** (j + 1) for m in counts) for j in (1, 2))
                assert pcn == q ** 2 * s1
                assert apcn == (q ** 4 * s2, 3 * q ** 4 * s1 - 2 * q ** 6)
                assert conv == (sum(m * math.prod(range(m - delta, m)) for m in counts),) * 2


def test_convolution_statistic_square_gf9(gf9):
    F = from_monomial(gf9, 2)
    c1, w1 = convolution_statistic(F, 2, 1)
    assert c1 > 0 and c1 == w1
    c2, w2 = convolution_statistic(F, 2, 2)
    assert c2 == 0 and w2 == 0


def test_convolution_statistic_gold_gf8(gf8):
    F = from_monomial(gf8, 3)
    for delta, expect_zero in ((1, False), (2, False), (3, True)):
        cs, ws = convolution_statistic(F, 7, delta)
        assert (cs == 0) == expect_zero
        assert cs == ws


def test_convolution_walsh_guard(gf16):
    # x^5 over GF(2^4): 6 columns and 2 rows of hat G are held
    F = from_monomial(gf16, 5)
    cs, ws = convolution_statistic(F, 2, 3)
    assert cs == ws
    held = 16 * _width(F.symmetry) * 2
    assert held == 16 * 6 * 2
    with mock.patch.object(walsh_module, "WALSH_ENTRY_GUARD", held - 1):
        assert convolution_statistic(F, 2, 3) == (cs, None)
    with mock.patch.object(walsh_module, "WALSH_ENTRY_GUARD", held):
        assert convolution_statistic(F, 2, 3) == (cs, ws)
    assert cs >= 0


def test_derivative_statistic_affine_zero(gf9):
    F = from_polynomial(gf9, {1: 4, 0: 7})
    for a in range(9):
        assert derivative_walsh_statistic(F, 2, a, 1) == 0


def test_derivative_statistic_gold_positive(gf8):
    assert derivative_walsh_statistic(from_monomial(gf8, 3), 7, 1, 1) > 0


def test_derivative_statistic_square_delta2_zero(gf9):
    F = from_monomial(gf9, 2)
    for a in range(9):
        assert derivative_walsh_statistic(F, 2, a, 2) == 0


def test_derivative_statistic_matches_multiplicity_oracle():
    rng = np.random.default_rng(3)
    for (p, n) in [(2, 3), (3, 2)]:
        spec = build_field(p, n)
        oracle = slow_field_like(spec)
        for trial in range(3):
            vals = rng.integers(0, spec.q, spec.q)
            F = raw_table(spec, vals)
            for c in (0, 2, spec.q - 1):
                if c == 1:
                    continue
                for a in (0, 1, spec.q - 1):
                    for delta in (1, 2, 3):
                        got = derivative_walsh_statistic(F, c, a, delta)
                        want = brute_derivative_statistic(
                            oracle, list(map(int, vals)), c, a, delta)
                        assert got == want
                        assert got >= 0


def test_derivative_statistic_gf1024_delta3():
    # only (q, p) arrays: q^delta = 2^30 character-sum terms cost nothing extra
    spec = build_field(2, 10)
    F = from_monomial(spec, 7)
    oracle = slow_field_like(spec)
    for c, a in ((0, 1), (2, 5), (spec.q - 1, 0)):
        assert (derivative_walsh_statistic(F, c, a, 3)
                == brute_derivative_statistic(oracle, list(map(int, F.values)), c, a, 3))


def test_derivative_statistic_all_a_vs_uniformity(gf9):
    # zero for every admissible a  <=>  uniformity <= delta
    F = from_monomial(gf9, 5)
    for c in (0, 2, 7):
        u = uniformity(F, c, INC).value
        for delta in (1, 2, 3):
            all_zero = all(
                derivative_walsh_statistic(F, c, a, delta) == 0
                for a in range(9))
            assert all_zero == (u <= delta)


def test_statistics_never_fractional(gf8, gf9):
    # as_integer and the exact divisions must succeed across a small corpus
    rng = np.random.default_rng(17)
    for spec in (gf8, gf9):
        for _ in range(5):
            F = raw_table(spec, rng.integers(0, spec.q, spec.q))
            for c in (0, 2, 3):
                pcn_power_sum(F, c)
                convolution_statistic(F, c, 2)
