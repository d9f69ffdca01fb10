import functools
import importlib
import inspect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdiffkit import (AConvention, CyclotomicInt, apcn_statistic, build_field,
                      convolution_statistic, ddt_c, derivative_walsh_statistic,
                      from_monomial, from_polynomial, pcn_power_sum, raw_table,
                      uniformity, walsh_table, walsh_value)
from cdiffkit.errors import NotRationalInteger, SizeGuardExceeded
from cdiffkit.walsh import (_conj_norm_sum, _count_frequencies, _g_array,
                            _dft, _walsh_array, _walsh_power_sums,
                            counts_power_sums, phi_coefficients)

from oracles import (brute_convolution_tensor, brute_derivative_statistic,
                     brute_pcn_sum, brute_walsh, brute_walsh_table,
                     slow_field_like)

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


@pytest.mark.parametrize("scale", [50, 2 ** 40, "blocks"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_conj_power_sum_matches_scalar_arithmetic(p, scale):
    # coefficients near 2^40 push L^2 * entries past 2^63, so the sum runs
    # on object dtype; int64 arithmetic would wrap and disagree.  "blocks"
    # spans two blocks of 3 rows of 2 entries: the first near 2^40 (object
    # dtype), the second small (int64)
    rng = np.random.default_rng(p)
    if scale == "blocks":
        arr = np.concatenate([2 ** 40 - rng.integers(0, 2 ** 41, size=(3, 2, p)),
                              50 - rng.integers(0, 100, size=(3, 2, p))])
    else:
        arr = scale - rng.integers(0, 2 * scale, size=(6, p), dtype=np.int64)
    want = CyclotomicInt.integer(p, 0)
    for row in arr.reshape(-1, p):
        z = CyclotomicInt(p, row)
        want = want + z.conj() * z
    with mock.patch.object(walsh_module, "BLOCK_ELEMENTS", 6 * p):
        assert _conj_norm_sum(arr, p) == want


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
        assert np.array_equal(_walsh_array(F), np.array(want))
    # out[s] = sum_w zeta^<s, w> arr[w] over base-p digit vectors s, w;
    # multiplying by zeta^e rotates by e
    arr = rng.integers(-1000, 1000, size=(q, k, p), dtype=np.int64)
    digits = [[r // p ** i % p for i in range(spec.n)] for r in range(q)]
    dot = [[sum(a * b for a, b in zip(digits[s], digits[w])) for w in range(q)]
           for s in range(q)]
    want = np.array([sum(np.roll(arr[w], dot[s][w], axis=-1) for w in range(q))
                     for s in range(q)])
    # the transform overwrites its input
    assert np.array_equal(_dft(arr.copy(), p), want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(TRANSFORM_FIELDS), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 16))
@example(TRANSFORM_FIELDS[-2], 2, 5)
@example(TRANSFORM_FIELDS[-1], 3, 7)
def test_transformed_g_is_q2_times_ddt(pn, seed, drawn):
    # hat G(s, t) = q^2 n_F(s, -t, c): a rational integer, so its canonical
    # coefficients (last one zero) are q^2 n_F(s, -t, c), 0, ..., 0.  The
    # DFT over the digits of (u, v) puts it at (t(s), t(t)), where digit i
    # of t(s) is Tr(s alpha^i) and alpha^i has rank p^i
    spec = build_field(*pn)
    q, p = spec.q, spec.p
    F = raw_table(spec, np.random.default_rng(seed).integers(0, q, q))
    neg = spec.neg_array(np.arange(q))
    t = sum(spec.trace_all()[spec.scale_array(p ** i, np.arange(q))] * p ** i
            for i in range(spec.n))
    assert np.array_equal(np.sort(t), np.arange(q))
    for c in (0, 1, drawn % q):
        Ghat = _dft(_g_array(F, c, _walsh_array(F)).reshape(q * q, p), p)
        Ghat = Ghat.reshape(q, q, p)[np.ix_(t, t)]
        want = np.zeros_like(Ghat)
        want[..., 0] = q * q * ddt_c(F, c)[:, neg]
        assert np.array_equal(Ghat - Ghat[..., -1:], want)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1), (7, 1)])
def test_count_frequencies_rejects_non_counts(p, n):
    spec = build_field(p, n)
    q = spec.q
    F = from_monomial(spec, 2)
    Ghat = _dft(_g_array(F, 2, _walsh_array(F)).reshape(q * q, p), p)
    Ghat = Ghat.reshape(q, q, p)
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
        arr = _walsh_array(F)
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
            assert s == q ** 2 * counts_power_sums(F, c, 1)[0]
            assert s >= p ** (4 * n)
            assert (s == p ** (4 * n)) == (uniformity(F, c, INC).value == 1)


def test_pcn_rejects_c1(gf9):
    with pytest.raises(ValueError):
        pcn_power_sum(from_monomial(gf9, 2), 1)


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
        js = (1, 2, 3) if spec.q == 4 else (1, 2)
        sums = _walsh_power_sums(F, c, len(js))
        for j in js:
            # the (j+1)-fold tensor is q^(2j) times the j-th sum
            assert (spec.q ** (2 * j) * sums[j - 1]
                    == brute_convolution_tensor(oracle, vals, c, j))


def test_count_walsh_duality():
    # sum over a, b of n_F(a,b,c)^j equals its Walsh-side evaluation (the
    # (j+1)-fold convolution tensor over p^(2jn)), exactly, for j in {1, 2, 3}
    rng = np.random.default_rng(23)
    for (p, n) in [(2, 2), (3, 1), (2, 3), (3, 2), (2, 4)]:
        spec = build_field(p, n)
        for F in (from_monomial(spec, 2),
                  raw_table(spec, rng.integers(0, spec.q, spec.q))):
            for c in (0, 2):
                if c == 1:
                    continue
                sums = _walsh_power_sums(F, c, 3)
                counts = counts_power_sums(F, c, 3)
                for j in (1, 2, 3):
                    assert sums[j - 1] == counts[j - 1]


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
    # GF(3^4): q^2 p = 19683 entries, within the default bound
    F = from_monomial(build_field(3, 4), 2)
    with pytest.raises(SizeGuardExceeded):
        apcn_statistic(F, 2, size_guard=19682)
    lhs, rhs = apcn_statistic(F, 2, size_guard=None)
    assert lhs == rhs
    assert apcn_statistic(F, 2) == (lhs, rhs)


def test_walsh_guard_refuses_before_allocating():
    # GF(2^12): q^2 p = 2^25 entries, above WALSH_ENTRY_GUARD = 2^23; one
    # (q, q, p) int64 array would take 256 MB.  The count side needs none.
    spec = build_field(2, 12)
    F = from_monomial(spec, 3)
    count_side, walsh_side = convolution_statistic(F, 2, 1)
    assert walsh_side is None
    assert (count_side == 0) == (uniformity(F, 2, INC).value == 1)
    for call in (walsh_table, lambda F: pcn_power_sum(F, 2),
                 lambda F: apcn_statistic(F, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardExceeded):
                call(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_g_is_transformed_once(gf16):
    # one transform builds W, one more transforms G, whatever the degree
    F = from_monomial(gf16, 5)
    for call in (lambda: apcn_statistic(F, 2), lambda: convolution_statistic(F, 2, 3)):
        with mock.patch.object(walsh_module, "_dft",
                               wraps=walsh_module._dft) as transform:
            call()
        assert transform.call_count == 2


def test_count_side_is_one_pass(gf16):
    # every power sum of the count side comes from one derivative sweep
    F = from_monomial(gf16, 5)
    with mock.patch.object(walsh_module, "_count_blocks",
                           wraps=walsh_module._count_blocks) as blocks:
        convolution_statistic(F, 2, 3)
    assert blocks.call_count == 1


def test_phi_coefficients():
    assert phi_coefficients(1) == [-1, 1]
    assert phi_coefficients(2) == [2, -3, 1]
    assert phi_coefficients(3) == [-6, 11, -6, 1]


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
    F = from_monomial(gf16, 5)
    cs, ws = convolution_statistic(F, 2, 3)
    assert cs == ws
    with mock.patch.object(walsh_module, "WALSH_ENTRY_GUARD", 16 * 16 * 2 - 1):
        assert convolution_statistic(F, 2, 3) == (cs, None)
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
