import json
import logging
import math

import numpy as np
import pytest

from cdiffkit import (AConvention, build_field, from_monomial, from_polynomial,
                      inverse_table, load_table, pcn_power_sum, raw_table, save_table,
                      uniformity)
from cdiffkit.errors import (EmptyPolynomial, FieldMismatch, InvalidExponent,
                             RankOutOfRange, SchemaViolation)
from cdiffkit.functions import _from_descriptor, table_from_json_dict, table_to_json_dict
from cdiffkit.reference_data import TABLE1, TABLE2
from cdiffkit.theorems import deca_trinomial

from oracles import eval_poly, slow_field_like


def test_monomial_cube_gf8(gf8):
    oracle = slow_field_like(gf8)
    tab = from_monomial(gf8, 3)
    assert tab[2] == oracle.pow(2, 3) == 3
    assert [tab[x] for x in range(8)] == [oracle.pow(x, 3) for x in range(8)]


def test_monomial_identity(gf9):
    tab = from_monomial(gf9, 1)
    assert list(tab.values) == list(range(9))


def test_monomial_zero_exponent_rejected(gf9):
    with pytest.raises(InvalidExponent):
        from_monomial(gf9, 0)


def test_exponents_and_coefficients_must_be_integers(gf9):
    # int() would truncate: x^2.5 tabulated x^2 with origin d = 2.5, and
    # {2.7: 1, 1: 1.9} built x^2 + x
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(InvalidExponent, match="must be an integer"):
            from_monomial(gf9, bad)
        with pytest.raises(InvalidExponent, match="must be an integer"):
            from_polynomial(gf9, {bad: 1, 1: 1})
        with pytest.raises(RankOutOfRange, match="must be an integer"):
            from_polynomial(gf9, {2: bad, 1: 1})
    with pytest.raises(RankOutOfRange):
        from_polynomial(gf9, {2: 1, 1: 1.9})
    F = from_monomial(gf9, np.int64(3))
    assert F == from_monomial(gf9, 3) and type(F.origin["d"]) is int
    assert from_polynomial(gf9, {np.int32(2): np.uint8(2)}) == from_polynomial(gf9, {2: 2})


def test_inverse_gf16(gf16):
    tab = from_monomial(gf16, 14)
    assert tab[0] == 0
    assert tab[1] == 1
    inv = inverse_table(gf16)
    assert inv == tab
    for x in range(1, 16):
        assert gf16.mul(x, inv[x]) == 1


def test_exponent_reduction(gf9):
    base = from_monomial(gf9, 3)
    shifted = from_monomial(gf9, 3 + 8)
    assert base == shifted
    assert shifted.origin["d"] == 3
    # reduced exponent 0 is stored as q-1
    tab = from_monomial(gf9, 8)
    assert tab.origin["d"] == 8
    assert from_monomial(gf9, 16).origin["d"] == 8


def test_polynomial_matches_oracle(gf27):
    oracle = slow_field_like(gf27)
    coeffs = {10: 1, 6: gf27.neg(1), 2: gf27.neg(1)}
    tab = from_polynomial(gf27, coeffs)
    for x in range(27):
        assert tab[x] == eval_poly(oracle, coeffs, x)


def test_polynomial_negative_coefficients(gf27):
    # -1 as a coefficient means the prime-subfield constant p-1
    a = from_polynomial(gf27, {10: 1, 6: -1, 2: -1})
    b = from_polynomial(gf27, {10: 1, 6: 2, 2: 2})
    assert a == b


def test_affine_is_bijection(gf9):
    tab = from_polynomial(gf9, {1: 4, 0: 7})
    assert tab.is_permutation()


def test_constant_polynomial_allowed(gf9):
    tab = from_polynomial(gf9, {0: 5})
    assert set(tab.values) == {5}
    with pytest.raises(EmptyPolynomial):
        from_polynomial(gf9, {})


def test_monomial_equals_single_term_polynomial():
    for (p, n) in [(2, 3), (3, 2), (5, 1)]:
        spec = build_field(p, n)
        for d in range(1, spec.q):
            assert from_monomial(spec, d) == from_polynomial(spec, {d: 1})


def test_coprime_exponent_permutation(gf16):
    for d in range(1, 16):
        tab = from_monomial(gf16, d)
        assert tab.is_permutation() == (math.gcd(d, 15) == 1)


def test_io_roundtrip(tmp_path, gf8):
    tab = from_monomial(gf8, 3)
    path = tmp_path / "cube.json"
    save_table(tab, path)
    back = load_table(path)
    assert back == tab
    assert back.origin == tab.origin


def test_io_short_values_rejected(tmp_path, gf8):
    blob = table_to_json_dict(from_monomial(gf8, 3))
    blob["values"] = blob["values"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(SchemaViolation):
        load_table(path)


def test_io_rank_out_of_range(tmp_path, gf8):
    blob = table_to_json_dict(from_monomial(gf8, 3))
    blob["values"][3] = 8
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(RankOutOfRange):
        load_table(path)


def test_io_field_mismatch(tmp_path, gf8, gf9):
    path = tmp_path / "t.json"
    save_table(from_monomial(gf8, 3), path)
    with pytest.raises(FieldMismatch):
        load_table(path, spec=gf9)
    assert load_table(path, spec=gf8) is not None


# each used to load (1.5 and true as rank 1) or raise a bare error
CORRUPT_TABLES = {
    "float value": lambda b: {**b, "values": b["values"][:3] + [1.5] + b["values"][4:]},
    "bool value": lambda b: {**b, "values": b["values"][:3] + [True] + b["values"][4:]},
    "polynomial without coeffs": lambda b: {**b, "origin": {"kind": "polynomial"}},
    "monomial without d": lambda b: {**b, "origin": {"kind": "monomial"}},
    "not an object": lambda b: 5,
}


@pytest.mark.parametrize("how", list(CORRUPT_TABLES))
def test_io_corrupt_table_rejected(tmp_path, gf8, how):
    blob = CORRUPT_TABLES[how](table_to_json_dict(from_monomial(gf8, 3)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(SchemaViolation):
        load_table(path)


def test_io_missing_key():
    with pytest.raises(SchemaViolation):
        table_from_json_dict({"origin": {"kind": "raw"}, "values": []})


def test_raw_table_validation(gf9):
    with pytest.raises(RankOutOfRange):
        raw_table(gf9, [0] * 8 + [9])
    with pytest.raises(SchemaViolation):
        raw_table(gf9, [0] * 8)


def test_raw_table_rejects_float_and_bool_values(gf9):
    # ranks are integers, as for scalars and the JSON loader: the floats
    # 0..8.9 are not the ranks 0..8, and True is not the rank 1
    for values in (np.linspace(0, 8.9, 9), np.full(9, True), [float(x) for x in range(9)]):
        with pytest.raises(RankOutOfRange):
            raw_table(gf9, values)
    assert raw_table(gf9, np.arange(9, dtype=np.uint8)).values.tolist() == list(range(9))


def test_values_read_only(gf9):
    tab = from_monomial(gf9, 2)
    with pytest.raises(ValueError):
        tab.values[0] = 1


def test_table_owns_its_values(gf16):
    # a table of a view keeps its values when the viewed array is written,
    # and so does what is found from them once: x is PcN at c = 2, and 0
    # would have a count of q
    base = np.arange(20, dtype=np.int32)
    F = raw_table(gf16, base[:16])
    inc = AConvention.INCLUDE_A_ZERO
    assert uniformity(F, 2, inc).value == 1
    base[:] = 0
    assert F.values.tolist() == list(range(16))
    assert uniformity(F, 2, inc).value == 1


@pytest.mark.parametrize("coeffs,record", [
    ({5: 1}, "|stabilizer| 26, rows 2 of 27, frobenius yes"),
    ({5: 1, 1: 2}, "|stabilizer| 2, rows 14 of 27, frobenius yes"),
    ({1: 4}, "|stabilizer| 26, rows 2 of 27, frobenius no"),
])
def test_symmetry_record_is_found_once(gf27, caplog, coeffs, record):
    # the first query on a table builds its record and logs it; a second
    # query, on the Walsh side, reads the same record
    F = from_polynomial(gf27, coeffs)
    with caplog.at_level(logging.DEBUG, logger="cdiffkit"):
        uniformity(F, 2, AConvention.INCLUDE_A_ZERO)
        pcn_power_sum(F, 2)
    found = [r for r in caplog.records
             if r.name == "cdiffkit" and r.getMessage().startswith("symmetry")]
    assert [(r.levelno, r.getMessage()) for r in found] == [
        (logging.DEBUG, f"symmetry over GF(3^3): {record}")]
    assert F.symmetry is F.symmetry


def test_describe(gf9):
    assert from_monomial(gf9, 2).describe() == "x^2"
    assert inverse_table(gf9).describe() == "x^(q-2)"
    assert raw_table(gf9, list(range(9))).describe() == "raw table"
    assert "x^1" in from_polynomial(gf9, {1: 4, 0: 7}).describe()


@pytest.mark.parametrize("n", range(1, 9))
def test_table1_descriptors(n):
    spec = build_field(2, n)
    oracle = slow_field_like(spec)
    for name, d in (("gold", 5), ("kasami", 13)):
        F = _from_descriptor(spec, TABLE1["functions"][name])
        assert F == from_monomial(spec, d)
        assert list(F.values) == [oracle.pow(x, d) for x in range(spec.q)]
        # stored reduced: d mod q - 1, in [1, q - 1]
        assert 1 <= F.origin["d"] <= spec.q - 1
        assert F.origin["d"] % (spec.q - 1) == d % (spec.q - 1)


@pytest.mark.parametrize("n", [row["n"] for row in TABLE2["rows"] if row["n"] <= 7])
def test_table2_descriptors(n):
    # -1 is a prime-field constant, and 10, 6, 2 reduce mod q - 1 (all to
    # 2 over GF(3), where the three terms add up); the oracle evaluates
    # the unreduced exponents
    spec = build_field(3, n)
    oracle = slow_field_like(spec)
    m1 = oracle.neg(1)
    for name, u, coeffs in (("minus", 1, {10: 1, 6: m1, 2: m1}),
                            ("plus", spec.neg(1), {10: 1, 6: 1, 2: m1})):
        F = _from_descriptor(spec, TABLE2["functions"][name])
        assert F == deca_trinomial(spec, u)
        assert list(F.values) == [eval_poly(oracle, coeffs, x) for x in range(spec.q)]
