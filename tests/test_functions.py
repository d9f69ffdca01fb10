import json
import math

import pytest

from cdiffkit import (build_field, from_monomial, from_polynomial,
                      inverse_table, load_table, raw_table, save_table)
from cdiffkit.errors import (EmptyPolynomial, FieldMismatch, InvalidExponent,
                             RankOutOfRange, SchemaViolation)
from cdiffkit.functions import table_from_json_dict, table_to_json_dict

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


def test_values_read_only(gf9):
    tab = from_monomial(gf9, 2)
    with pytest.raises(ValueError):
        tab.values[0] = 1


def test_describe(gf9):
    assert from_monomial(gf9, 2).describe() == "x^2"
    assert inverse_table(gf9).describe() == "x^(q-2)"
    assert raw_table(gf9, list(range(9))).describe() == "raw table"
    assert "x^1" in from_polynomial(gf9, {1: 4, 0: 7}).describe()
