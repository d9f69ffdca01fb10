import json
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdiffkit import build_field, find_default_modulus
from cdiffkit.errors import (DegreeMismatch, DivisionByZero,
                             NonDivisorSubfieldDegree, NonPrimeCharacteristic,
                             ReducibleModulus, SchemaViolation,
                             SizeGuardExceeded)
from cdiffkit import field
from cdiffkit.field import LOG_TABLE_BOUND, FieldSpec, _build_cached, is_irreducible

from oracles import SlowField, slow_field_like


def test_build_classic_gf8():
    spec = build_field(2, 3, [1, 1, 0, 1])
    assert spec.q == 8
    assert spec.modulus == (1, 1, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        build_field(2, 3, [1, 0, 0, 1])   # x^3 + 1 = (x+1)(x^2+x+1)


def test_non_prime_characteristic():
    with pytest.raises(NonPrimeCharacteristic):
        build_field(4, 2)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        build_field(3, 2, [1, 1, 1, 1])


def test_default_modulus_gf9_is_smallest_primitive():
    # oracle: exhaustive scan of the 9 monic quadratics in base-3 order,
    # keeping the first irreducible one whose root generates GF(9)*
    expected = None
    for m in range(9):
        mod = [m % 3, (m // 3) % 3, 1]
        F = SlowField(3, 2, mod)
        if any(F.add(F.mul(x, x), F.add(F.mul(mod[1], x), mod[0])) == 0
               for x in range(3)):
            continue  # has a root, reducible
        order, y = 1, 3
        while y != 1:
            y = F.mul(y, 3)
            order += 1
        if order == 8:
            expected = mod
            break
    assert expected is not None
    assert list(build_field(3, 2).modulus) == expected == [2, 1, 1]


def test_default_modulus_reproducible():
    a = build_field(5, 3)
    b = build_field(5, 3)
    assert a is b or a.modulus == b.modulus
    assert find_default_modulus(5, 3) == list(a.modulus)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1)])
def test_arith_matches_schoolbook_oracle(p, n):
    spec = build_field(p, n)
    q = spec.q
    oracle = slow_field_like(spec)
    for x in range(q):
        for y in range(q):
            assert spec.add(x, y) == oracle.add(x, y)
            assert spec.mul(x, y) == oracle.mul(x, y)
            assert spec.sub(x, y) == oracle.sub(x, y)
        for e in (0, 1, 2, 3, q - 2, q + 5):
            assert spec.pow(x, e) == oracle.pow(x, e)
        if x:
            assert spec.inv(x) == oracle.inv(x)
            assert spec.pow(x, -3) == oracle.pow(x, -3)
        assert spec.frobenius(x) == oracle.pow(x, p)
        assert spec.trace_abs(x) == oracle.trace(x)
        assert spec.is_square(x) == (p == 2 or x == 0
                                     or oracle.pow(x, (q - 1) // 2) == 1)


def test_gf8_examples(gf8):
    assert gf8.mul(2, 4) == 3          # x * x^2 = x + 1
    assert gf8.inv(2) == 5             # x^{-1} = x^2 + 1
    assert gf8.mul(2, 5) == 1
    for x in range(1, 8):
        assert gf8.mul(x, 1) == x


def test_inv_and_pow_errors(gf9):
    with pytest.raises(DivisionByZero):
        gf9.inv(0)
    with pytest.raises(DivisionByZero):
        gf9.pow(0, -2)
    assert gf9.pow(0, 0) == 1
    assert gf9.pow(0, 5) == 0


@pytest.mark.parametrize("bad", [2.9, 2.0, "2", True, np.float64(2), None])
def test_scalar_operations_reject_non_integer_ranks(gf9, bad):
    # int() would truncate 2.9 and read True as 1
    for call in (lambda: gf9.mul(bad, 3), lambda: gf9.add(3, bad), lambda: gf9.neg(bad),
                 lambda: gf9.inv(bad), lambda: gf9.frobenius(bad), lambda: gf9.log(bad)):
        with pytest.raises(ValueError, match="rank must be an integer"):
            call()
    assert gf9.mul(np.int64(2), np.uint8(3)) == gf9.mul(2, 3)
    assert type(gf9.neg(np.int32(2))) is int


@pytest.mark.parametrize("bad", [2.7, 2.0, "2", True, np.float64(2), None])
def test_exponents_reject_non_integers(gf9, bad):
    # int() would truncate 2.7: pow(3, 2.7) would equal pow(3, 2)
    for call in (lambda: gf9.pow(3, bad), lambda: gf9.pow(0, bad), lambda: gf9.pow_all(bad)):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            call()
    assert gf9.pow(3, np.int64(2)) == gf9.pow(3, 2) == gf9.mul(3, 3)
    assert np.array_equal(gf9.pow_all(np.uint8(2)), gf9.pow_all(2))


def test_pow_negative_exponent(gf9):
    for x in range(1, 9):
        assert gf9.pow(x, -1) == gf9.inv(x)
        assert gf9.mul(gf9.pow(x, -3), gf9.pow(x, 3)) == 1


def test_trace_examples(gf8):
    gf4 = build_field(2, 2)
    assert gf4.trace_abs(2) == 1       # omega + omega^2 = 1
    assert gf8.trace_abs(0) == 0
    assert gf8.trace_abs(1) == 1       # n = 3 odd


def test_trace_properties():
    for (p, n) in [(2, 4), (3, 3), (5, 2)]:
        spec = build_field(p, n)
        counts = np.bincount(spec.trace_all(), minlength=p)
        assert (counts == spec.q // p).all()
        for x in range(spec.q):
            assert spec.trace_abs(spec.frobenius(x)) == spec.trace_abs(x)
        for x in range(spec.q):
            for y in range(0, spec.q, 7):
                assert (spec.trace_abs(spec.add(x, y))
                        == (spec.trace_abs(x) + spec.trace_abs(y)) % p)


def test_trace_rel(gf27):
    for x in range(27):
        assert gf27.trace_rel(3, x) == x
        assert gf27.trace_rel(1, x) == gf27.trace_abs(x)
    with pytest.raises(NonDivisorSubfieldDegree):
        gf27.trace_rel(2, 5)
    f81 = build_field(3, 4)
    for x in range(81):
        r = f81.trace_rel(2, x)
        assert f81.frobenius(f81.frobenius(r)) == r


def test_is_square():
    gf5 = build_field(5, 1)
    assert [x for x in range(5) if gf5.is_square(x)] == [0, 1, 4]
    gf9 = build_field(3, 2)
    squares = {gf9.mul(x, x) for x in range(9)}
    assert all(gf9.is_square(x) == (x in squares) for x in range(9))
    assert gf9.is_square(gf9.neg(1))   # q = 9 is 1 mod 4
    assert gf9.is_square(0)
    for (p, n) in [(3, 2), (5, 2), (7, 1), (3, 3)]:
        spec = build_field(p, n)
        assert sum(spec.is_square(x) for x in range(spec.q)) == (spec.q + 1) // 2


def test_enumerate(gf27):
    elems = list(gf27.elements())
    assert elems == list(range(27))
    assert elems[0] == 0 and elems[1] == 1
    gf4 = build_field(2, 2)
    assert list(gf4.elements()) == [0, 1, 2, 3]


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (3, 4), (5, 2)])
def test_field_axioms_exhaustive(p, n):
    spec = build_field(p, n)
    q = spec.q
    xs = np.arange(q)
    x3 = xs[:, None, None]
    y3 = xs[None, :, None]
    z3 = xs[None, None, :]
    assert (spec.add_arrays(spec.add_arrays(x3, y3), z3)
            == spec.add_arrays(x3, spec.add_arrays(y3, z3))).all()
    assert (spec.mul_arrays(spec.mul_arrays(x3, y3), z3)
            == spec.mul_arrays(x3, spec.mul_arrays(y3, z3))).all()
    assert (spec.mul_arrays(x3, spec.add_arrays(y3, z3))
            == spec.add_arrays(spec.mul_arrays(x3, y3), spec.mul_arrays(x3, z3))).all()
    assert (spec.add_arrays(xs[:, None], xs[None, :])
            == spec.add_arrays(xs[None, :], xs[:, None])).all()
    for x in range(1, q):
        assert spec.mul(x, spec.inv(x)) == 1
        assert spec.pow(x, q - 1) == 1


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_frobenius_automorphism(p, n):
    spec = build_field(p, n)
    q = spec.q
    for x in range(q):
        for y in range(0, q, 3):
            assert (spec.frobenius(spec.mul(x, y))
                    == spec.mul(spec.frobenius(x), spec.frobenius(y)))
            assert (spec.frobenius(spec.add(x, y))
                    == spec.add(spec.frobenius(x), spec.frobenius(y)))
    for x in range(q):
        y = x
        for _ in range(n):
            y = spec.frobenius(y)
        assert y == x


def test_log_antilog_roundtrip(gf27):
    assert gf27._exp is not None
    for r in range(1, 27):
        assert int(gf27._exp[int(gf27._log[r])]) == r


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (7, 1)])
def test_field_tables_read_only(p, n):
    # build_field hands every caller the same cached FieldSpec
    tables = {name: t for name, t in vars(build_field(p, n)).items()
              if isinstance(t, np.ndarray)}
    assert {"_exp", "_log", "_neg", "_frob", "_inv", "_trace"} <= set(tables)
    for name, t in tables.items():
        assert not t.flags.writeable, name


def test_field_above_table_bound_is_refused():
    # refused before the modulus search and any table is built
    for make, p, n in [(build_field, 2, 21), (FieldSpec, 3, 13)]:
        start = time.perf_counter()
        with pytest.raises(SizeGuardExceeded):
            make(p, n)
        assert time.perf_counter() - start < 1


class _Reached(Exception):
    pass


@pytest.mark.parametrize("p,n,refused", [(53, 3, False), (59, 3, True), (101, 3, True),
                                         (13, 5, False), (7, 7, False), (3, 11, False)])
def test_split_tables_are_counted_by_the_guard(monkeypatch, p, n, refused):
    # odd n: LO holds p*q entries, refused above 8 LOG_TABLE_BOUND before the
    # modulus search and any table (GF(101^3) would need 104,060,401 entries)
    def reached(*args):
        raise _Reached
    monkeypatch.setattr(field, "find_default_modulus", reached)
    monkeypatch.setattr(field, "_digit_sum_table", reached)
    assert p ** n <= LOG_TABLE_BOUND
    assert (p * p ** n > 8 * LOG_TABLE_BOUND) == refused
    with pytest.raises(SizeGuardExceeded if refused else _Reached):
        FieldSpec(p, n)


@pytest.mark.parametrize("p,n", [(np.int64(3), 2), (3, np.int64(2)), (np.int32(3), np.uint8(2))],
                         ids=["numpy p", "numpy n", "numpy p and n"])
def test_numpy_integers_build_the_field(p, n):
    spec = build_field(p, n)
    assert spec is build_field(3, 2)
    direct = FieldSpec(p, n)
    assert (type(direct.p), type(direct.n)) == (int, int)
    assert json.dumps(direct.to_json_dict()) == '{"p": 3, "n": 2, "modulus": [2, 1, 1]}'


@pytest.mark.parametrize("p,n,error,named", [
    (True, 2, NonPrimeCharacteristic, "bool"),
    (3.0, 2, NonPrimeCharacteristic, "float"),
    ("3", 2, NonPrimeCharacteristic, "str"),
    (3, True, DegreeMismatch, "bool"),
    (3, 2.0, DegreeMismatch, "float"),
    (3, "2", DegreeMismatch, "str"),
], ids=["bool p", "float p", "str p", "bool n", "float n", "str n"])
def test_non_integer_p_or_n_rejected(p, n, error, named):
    for make in (build_field, FieldSpec):
        with pytest.raises(error, match=f"must be an integer, got {named} "):
            make(p, n)


# -- the log domain against the schoolbook oracle ------------------------------

# x^2 + 1 over F_3 is irreducible but not primitive (x has order 4), so its
# generator comes from the search, not from the class of x
LOG_FIELDS = [(2, 4, None), (3, 3, None), (5, 2, None), (7, 2, None), (3, 2, [1, 0, 1])]


@pytest.mark.parametrize("p,n,modulus", LOG_FIELDS)
def test_mul_gen_power_matches_oracle(p, n, modulus):
    spec = build_field(p, n, modulus)
    slow = slow_field_like(spec)
    q, g = spec.q, spec.primitive_rank
    assert len({slow.pow(g, k) for k in range(q - 1)}) == q - 1
    x = e = np.arange(q)   # every rank, zeros included, and every 0 <= e < q
    want = [[slow.mul(slow.pow(g, int(k)), int(r)) for k in e] for r in x]
    assert spec.mul_gen_power(x[:, None], e[None, :]).tolist() == want
    assert spec.mul_gen_power(x[None, :], e[:, None]).T.tolist() == want
    assert spec.mul_gen_power(x, 0).tolist() == x.tolist()
    for r, k in [(0, 0), (0, q - 1), (1, 1), (q - 1, q - 2), (2, q - 1)]:
        got = spec.mul_gen_power(r, k)
        assert (got.shape, got.dtype, int(got)) == ((), np.int32, want[r][k])


@pytest.mark.parametrize("p,n,modulus", LOG_FIELDS)
def test_discrete_log_round_trip(p, n, modulus):
    spec = build_field(p, n, modulus)
    slow = slow_field_like(spec)
    logs = [spec.log(x) for x in range(1, spec.q)]
    assert sorted(logs) == list(range(spec.q - 1))
    assert [slow.pow(spec.primitive_rank, e) for e in logs] == list(range(1, spec.q))
    assert [int(spec.mul_gen_power(1, e)) for e in logs] == list(range(1, spec.q))
    with pytest.raises(DivisionByZero):
        spec.log(0)
    with pytest.raises(ValueError):
        spec.log(spec.q)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (7, 2), (11, 1), (13, 1)])
def test_cosets_match_brute_force_orbits(p, n):
    spec = build_field(p, n)
    slow = slow_field_like(spec)
    q, g = spec.q, spec.primitive_rank
    for m in [m for m in range(1, q) if (q - 1) % m == 0]:
        group = {slow.pow(g, m * k) for k in range((q - 1) // m)}
        want = [0] + [min(slow.mul(a, h) for h in group) for a in range(1, q)]
        reps, coset_min = spec.cosets(m)
        assert coset_min.tolist() == want, m
        assert reps.tolist() == sorted(set(want)), m


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_scale_array_keeps_dtype_and_shape(gf27, dtype, shape):
    slow = slow_field_like(gf27)
    rng = np.random.default_rng(len(shape))
    xs = rng.integers(1, 27, shape).astype(dtype)
    if xs.size > 1:
        xs.flat[0] = 0
    for c in (0, 1, gf27.primitive_rank, int(rng.integers(2, 27))):
        got = gf27.scale_array(c, xs)
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (np.dtype(dtype), shape)
        assert got.ravel().tolist() == [slow.mul(c, int(x)) for x in xs.ravel()]


def test_json_roundtrip(gf9):
    blob = gf9.to_json_dict()
    assert blob == {"p": 3, "n": 2, "modulus": [2, 1, 1]}
    assert FieldSpec.from_json_dict(blob) == gf9


# each used to build a field: int() truncated 2.9, 3.7 and 1.2, read true
# as 1 and "3" as 3; a missing modulus raised a bare KeyError
BAD_FIELD_BLOCKS = {
    "floats and a bool": {"p": 2.9, "n": 3.7, "modulus": [1, 1.2, 0, True]},
    "float n": {"p": 2, "n": 3.7, "modulus": [1, 1, 0, 1]},
    "float coefficient": {"p": 2, "n": 3, "modulus": [1, 1.2, 0, 1]},
    "bool coefficient": {"p": 2, "n": 3, "modulus": [1, 1, 0, True]},
    "string p": {"p": "3", "n": 2, "modulus": [2, 1, 1]},
    "missing modulus": {"p": 3, "n": 2},
}


@pytest.mark.parametrize("how", list(BAD_FIELD_BLOCKS))
def test_json_field_block_rejected(how):
    with pytest.raises(SchemaViolation):
        FieldSpec.from_json_dict(BAD_FIELD_BLOCKS[how])


def test_irreducibility_large_degree_path():
    # degree 5+ goes through the gcd criterion
    assert is_irreducible([1, 1, 0, 0, 0, 1], 2) is False  # x^5+x+1 = (x^2+x+1)(...)
    assert is_irreducible([1, 0, 1, 0, 0, 1], 2) is True   # x^5+x^2+1
    spec = build_field(2, 6)
    assert spec.q == 64


# -- tableless addition against digit-wise addition --------------------------

# n = 1 (addition mod p for odd p) and odd n (unequal halves of the split)
ADD_FIELDS = [(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (3, 4),
              (5, 1), (5, 3), (7, 1), (7, 2)]


@st.composite
def addition_cases(draw):
    p, n = draw(st.sampled_from(ADD_FIELDS))
    rank = st.integers(0, p ** n - 1)
    pairs = draw(st.lists(st.tuples(rank, rank), min_size=1, max_size=12))
    shifts = draw(st.lists(rank, min_size=1, max_size=3))
    return p, n, pairs, shifts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(addition_cases())
@example((3, 8, [(0, 0), (6560, 6560), (1234, 5678), (80, 81)], [0, 6560, 4100]))
@example((2, 12, [(0, 0), (4095, 4095), (1234, 3210)], [0, 4095, 2049]))
def test_addition_matches_digitwise(case):
    p, n, pairs, shifts = case
    spec = build_field(p, n)
    slow = slow_field_like(spec)
    xs, ys = zip(*pairs)
    assert [spec.add(x, y) for x, y in pairs] == [slow.add(x, y) for x, y in pairs]
    assert [spec.sub(x, y) for x, y in pairs] == [slow.sub(x, y) for x, y in pairs]
    assert (spec.add_arrays(np.array(xs, dtype=np.int32), np.array(ys)).tolist()
            == [slow.add(x, y) for x, y in pairs])
    rows = spec.add_rows(shifts)
    assert rows.tolist() == [[slow.add(x, a) for x in range(spec.q)] for a in shifts]
    # the same values and dtype as add_arrays in each representation: XOR,
    # addition mod p and the split tables
    want = spec.add_arrays(np.array(shifts, dtype=np.intp)[:, None], np.arange(spec.q))
    assert np.array_equal(rows, want) and rows.dtype == want.dtype


def test_build_field_cache_is_bounded():
    primes = [p for p in range(2, 200) if all(p % f for f in range(2, p))]
    assert len(primes) > 32
    for p in primes:
        build_field(p, 1)
    assert _build_cached.cache_info().currsize <= 32


def _held_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple, dict)):
        items = obj.values() if isinstance(obj, dict) else obj
        return sys.getsizeof(obj) + sum(_held_bytes(v) for v in items)
    return sys.getsizeof(obj)


@pytest.mark.parametrize("p,n", [(2, 12), (3, 8), (3, 7), (8191, 1)])
def test_field_tables_stay_linear_in_q(p, n):
    # tables of O(q n) entries, and p*q for the odd-n digit-sum table, hold a
    # few hundred KB here; a q x q table would hold 64 MB (q = 4096), 172 MB
    # (q = 6561) or 268 MB (q = 8191)
    spec = build_field(p, n)
    assert _held_bytes(vars(spec)) < 1 << 20
