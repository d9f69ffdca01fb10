"""Functions F: GF(p^n) -> GF(p^n) as fully tabulated value vectors.

The table is the single source of truth for evaluation; the origin
descriptor (monomial exponent, polynomial coefficients, inverse, raw) is
metadata carried along for reports and serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    EmptyPolynomial,
    FieldMismatch,
    InvalidExponent,
    RankOutOfRange,
    SchemaViolation,
)
from .field import FieldSpec, _integer


@dataclass(frozen=True)
class FunctionTable:
    spec: FieldSpec
    values: np.ndarray
    origin: dict = dataclass_field(default_factory=lambda: {"kind": "raw"})

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int32)
        if vals.shape != (self.spec.q,):
            raise SchemaViolation(
                f"value vector must have exactly q = {self.spec.q} entries, "
                f"got {vals.shape}")
        if vals.size and (vals.min() < 0 or vals.max() >= self.spec.q):
            raise RankOutOfRange("value ranks must lie in [0, q)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def is_permutation(self) -> bool:
        return len(np.unique(self.values)) == self.spec.q

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and self.spec == other.spec
                and np.array_equal(self.values, other.values))

    def describe(self) -> str:
        o = self.origin
        if o["kind"] == "monomial":
            return f"x^{o['d']}"
        if o["kind"] == "polynomial":
            terms = [f"{c}*x^{e}" for e, c in sorted(o["coeffs"].items(), reverse=True)]
            return " + ".join(terms)
        if o["kind"] == "inverse":
            return "x^(q-2)"
        return "raw table"


def from_monomial(spec: FieldSpec, d: int) -> FunctionTable:
    """Table of x^d with 0^d = 0.

    The exponent is stored reduced mod q-1; a reduced exponent of 0 is kept
    as q-1 (x^(q-1) and x^0 differ at x = 0, and the nonzero part is what
    the reduction preserves).  d = 0 itself is rejected.
    """
    d = _integer(d, "monomial exponent", InvalidExponent)
    if d < 1:
        raise InvalidExponent(f"monomial exponent must be >= 1, got {d}")
    d_red = _reduced_exponent(spec.q, d)
    return FunctionTable(spec, spec.pow_all(d_red), {"kind": "monomial", "d": d_red})


def _reduced_exponent(q: int, e: int) -> int:
    """e >= 1 reduced mod q-1, with 0 kept as q-1; 1 when q = 2."""
    return (e % (q - 1) or q - 1) if q > 2 else 1


def from_polynomial(spec: FieldSpec, coeffs: dict) -> FunctionTable:
    """Table of sum a_e x^e for a coefficient map {exponent: rank}.

    Exponent 0 contributes the constant a_0 everywhere (including x = 0);
    negative coefficients are accepted as prime-subfield constants and
    reduced mod p.
    """
    if not coeffs:
        raise EmptyPolynomial("no coefficients given")
    q = spec.q
    norm = {}
    for e, c in coeffs.items():
        e = _integer(e, "exponent", InvalidExponent)
        if not 0 <= e <= q - 1:
            raise InvalidExponent(f"exponent {e} outside [0, q-1]")
        c = _integer(c, "coefficient rank", RankOutOfRange)
        c = c % spec.p if c < 0 else c
        if not 0 <= c < q:
            raise RankOutOfRange(f"coefficient rank {c} outside [0, q)")
        if c:
            norm[e] = spec.add(norm.get(e, 0), c) if e in norm else c
    acc = np.zeros(q, dtype=np.int32)
    for e, c in sorted(norm.items()):
        term = np.full(q, c, dtype=np.int32) if e == 0 else spec.scale_array(c, spec.pow_all(e))
        acc = spec.add_arrays(acc, term)
    return FunctionTable(spec, acc,
                         {"kind": "polynomial", "coeffs": dict(sorted(norm.items()))})


def _from_descriptor(spec: FieldSpec, desc: dict) -> FunctionTable:
    """The function a reference descriptor names: {"monomial": d} or
    {"terms": [[e, c], ...]}.  Term exponents e >= 1 reduce as in
    from_monomial, negative coefficients are prime-field constants, and
    terms whose exponents meet are added in the field."""
    if "monomial" in desc:
        return from_monomial(spec, desc["monomial"])
    return from_polynomial(spec, _added_terms(spec, (
        (_reduced_exponent(spec.q, e) if e >= 1 else 0, c) for e, c in desc["terms"])))


def _added_terms(spec: FieldSpec, terms) -> dict:
    """{e: the field sum of the c paired with e} over (e, c) pairs, a
    negative c read as the prime-field constant c mod p."""
    coeffs = {}
    for e, c in terms:
        c = c % spec.p if c < 0 else c
        coeffs[e] = spec.add(coeffs[e], c) if e in coeffs else c
    return coeffs


def inverse_table(spec: FieldSpec) -> FunctionTable:
    """The inverse map x -> x^(q-2) with 0 -> 0."""
    return FunctionTable(spec, spec._inv, {"kind": "inverse"})


def raw_table(spec: FieldSpec, values) -> FunctionTable:
    return FunctionTable(spec, np.asarray(values, dtype=np.int32), {"kind": "raw"})


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def table_to_json_dict(table: FunctionTable) -> dict:
    origin = dict(table.origin)
    if origin["kind"] == "polynomial":
        origin["coeffs"] = {str(e): int(c) for e, c in origin["coeffs"].items()}
    return {
        "field": table.spec.to_json_dict(),
        "origin": origin,
        "values": [int(v) for v in table.values],
    }


def table_from_json_dict(blob: dict, spec: FieldSpec | None = None) -> FunctionTable:
    if not isinstance(blob, dict):
        raise SchemaViolation(f"a table is a JSON object, got {type(blob).__name__}")
    for key in ("field", "origin", "values"):
        if key not in blob:
            raise SchemaViolation(f"missing top-level key {key!r}")
    file_spec = FieldSpec.from_json_dict(blob["field"])
    if spec is not None and spec != file_spec:
        raise FieldMismatch(
            f"file field {file_spec!r} does not match expected {spec!r}")
    spec = file_spec
    values = blob["values"]
    if not isinstance(values, list) or len(values) != spec.q:
        raise SchemaViolation(
            f"values must be a list of exactly q = {spec.q} ranks")
    values = [_integer(v, "value rank") for v in values]
    if any(v < 0 or v >= spec.q for v in values):
        raise RankOutOfRange("value rank outside [0, q)")
    origin = blob["origin"]
    if not isinstance(origin, dict) or origin.get("kind") not in (
            "monomial", "polynomial", "inverse", "raw"):
        raise SchemaViolation(f"bad origin descriptor: {origin!r}")
    origin = dict(origin)
    if origin["kind"] == "polynomial":
        coeffs = origin.get("coeffs")
        if not isinstance(coeffs, dict):
            raise SchemaViolation(f"polynomial origin without coeffs: {origin!r}")
        try:
            origin["coeffs"] = {int(e): _integer(c, "coefficient")
                                for e, c in coeffs.items()}
        except ValueError as exc:
            raise SchemaViolation(f"malformed coeffs exponent: {exc}") from exc
    if origin["kind"] == "monomial":
        origin["d"] = _integer(origin.get("d"), "monomial exponent d")
    return FunctionTable(spec, np.array(values, dtype=np.int32), origin)


def save_table(table: FunctionTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json_dict(table), fh)
        fh.write("\n")


def load_table(path, spec: FieldSpec | None = None) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"not valid JSON: {exc}") from exc
    return table_from_json_dict(blob, spec)
